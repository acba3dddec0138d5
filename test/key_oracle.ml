(* The twelve [state_key] renderers as they were written over [Format],
   kept verbatim as the oracle the one-pass [Buffer] writers must match
   byte for byte (the key's fingerprint seeds each state's RNG, so its
   bytes fix every explored graph).  Only the module plumbing around each
   body is new: each renderer is a functor over the module whose state it
   renders, and a composite renders its parts with the leaves' oracles
   (defined after [open], so they shadow the library's renderers). *)

open Prelude

module Vs_spec (M : Msg_intf.S) (S : module type of Vs.Vs_spec.Make (M)) = struct
  open S

  let state_key s =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let pair ppf (m, p) = Format.fprintf ppf "%a@%a" M.pp m Proc.pp p in
    Format.fprintf ppf "C%a|V[%a]|Q[%a]|P[%a]|N[%a]|S[%a]"
      View.Set.pp s.created
      (Format.pp_print_list (fun ppf (p, g) ->
           Format.fprintf ppf "%a=%a;" Proc.pp p Gid.Bot.pp g))
      (Proc.Map.bindings s.current_viewid)
      (Format.pp_print_list (fun ppf (g, q) ->
           Format.fprintf ppf "%a:%a;" Gid.pp g (Seqs.pp pair) q))
      (Gid.Map.bindings s.queue)
      (Format.pp_print_list (fun ppf ((p, g), q) ->
           Format.fprintf ppf "%a.%a:%a;" Proc.pp p Gid.pp g (Seqs.pp M.pp) q))
      (Pg_map.bindings s.pending)
      (Format.pp_print_list (fun ppf ((p, g), n) ->
           Format.fprintf ppf "%a.%a=%d;" Proc.pp p Gid.pp g n))
      (Pg_map.bindings s.next)
      (Format.pp_print_list (fun ppf ((p, g), n) ->
           Format.fprintf ppf "%a.%a=%d;" Proc.pp p Gid.pp g n))
      (Pg_map.bindings s.next_safe);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

module Dvs_spec (M : Msg_intf.S) (S : module type of Core.Dvs_spec.Make (M)) = struct
  open S

  let state_key s =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let pair ppf (m, p) = Format.fprintf ppf "%a@%a" M.pp m Proc.pp p in
    Format.fprintf ppf "C%a|V[%a]|A[%a]|R[%a]|Q[%a]|P[%a]|N[%a]|S[%a]"
      View.Set.pp s.created
      (Format.pp_print_list (fun ppf (p, g) ->
           Format.fprintf ppf "%a=%a;" Proc.pp p Gid.Bot.pp g))
      (Proc.Map.bindings s.current_viewid)
      (Format.pp_print_list (fun ppf (g, ps) ->
           Format.fprintf ppf "%a:%a;" Gid.pp g Proc.Set.pp ps))
      (Gid.Map.bindings s.attempted)
      (Format.pp_print_list (fun ppf (g, ps) ->
           Format.fprintf ppf "%a:%a;" Gid.pp g Proc.Set.pp ps))
      (Gid.Map.bindings s.registered)
      (Format.pp_print_list (fun ppf (g, q) ->
           Format.fprintf ppf "%a:%a;" Gid.pp g (Seqs.pp pair) q))
      (Gid.Map.bindings s.queue)
      (Format.pp_print_list (fun ppf ((p, g), q) ->
           Format.fprintf ppf "%a.%a:%a;" Proc.pp p Gid.pp g (Seqs.pp M.pp) q))
      (Pg_map.bindings s.pending)
      (Format.pp_print_list (fun ppf ((p, g), n) ->
           Format.fprintf ppf "%a.%a=%d;" Proc.pp p Gid.pp g n))
      (Pg_map.bindings s.next)
      (Format.pp_print_list (fun ppf ((p, g), n) ->
           Format.fprintf ppf "%a.%a=%d;" Proc.pp p Gid.pp g n))
      (Pg_map.bindings s.next_safe);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

module To_spec = struct
  open To_broadcast.To_spec

  let state_key s =
    let semi ppf () = Format.pp_print_string ppf ";" in
    Format.asprintf "pd[%a]|or%a|nx[%a]"
      (Format.pp_print_list ~pp_sep:semi (fun ppf (p, q) ->
           Format.fprintf ppf "%a:%a" Proc.pp p (Seqs.pp Format.pp_print_string) q))
      (Proc.Map.bindings s.pending)
      (Seqs.pp (fun ppf (a, p) -> Format.fprintf ppf "%s@%a" a Proc.pp p))
      s.order
      (Format.pp_print_list ~pp_sep:semi (fun ppf (p, n) ->
           Format.fprintf ppf "%a=%d" Proc.pp p n))
      (Proc.Map.bindings s.next)
end

module Vs_to_dvs (M : Msg_intf.S) (S : module type of Dvs_impl.Vs_to_dvs.Make (M)) = struct
  open S

  let pp_view_opt ppf = function
    | None -> Format.pp_print_string ppf "⊥"
    | Some v -> View.pp ppf v

  let state_key s =
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    let plist pp_x ppf xs = Format.pp_print_list ~pp_sep:semi pp_x ppf xs in
    let mp ppf (m, q) = Format.fprintf ppf "%a@%a" M.pp m Proc.pp q in
    let info ppf (v, vs) =
      Format.fprintf ppf "(%a,%a)" View.pp v View.Set.pp vs
    in
    let gmap pp_x ppf m =
      plist (fun ppf (g, x) -> Format.fprintf ppf "%a:%a" Gid.pp g pp_x x) ppf
        (Gid.Map.bindings m)
    in
    Format.fprintf ppf
      "me%a|cur%a|cc%a|act%a|amb%a|att%a|ir[%a]|rr[%a]|tv[%a]|fv[%a]|sv[%a]|rg{%a}|is[%a]"
      Proc.pp s.me pp_view_opt s.cur pp_view_opt s.client_cur View.pp s.act
      View.Set.pp s.amb View.Set.pp s.attempted
      (plist (fun ppf ((q, g), x) ->
           Format.fprintf ppf "%a.%a=%a" Proc.pp q Gid.pp g info x))
      (Pg_map.bindings s.info_rcvd)
      (plist (fun ppf ((q, g), ()) ->
           Format.fprintf ppf "%a.%a" Proc.pp q Gid.pp g))
      (Pg_map.bindings s.rcvd_rgst)
      (gmap (Seqs.pp W.pp)) s.msgs_to_vs
      (gmap (Seqs.pp mp)) s.msgs_from_vs
      (gmap (Seqs.pp mp)) s.safe_from_vs
      (plist Gid.pp) (Gid.Set.elements s.reg)
      (gmap info) s.info_sent;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

module Dvs_to_to = struct
  open To_broadcast.Dvs_to_to

  let state_key s =
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    let plist pp_x ppf xs = Format.pp_print_list ~pp_sep:semi pp_x ppf xs in
    let labels ppf m =
      plist
        (fun ppf (l, a) -> Format.fprintf ppf "%a=%s" Label.pp l a)
        ppf (Label.Map.bindings m)
    in
    Format.fprintf ppf
      "me%a|cv%a|st%a|co[%a]|ns%d|bf%a|sl{%a}|or%a|nc%d|nr%d|hp%a|gs[%a]|se%a|rg{%a}|dl%a|es{%a}|bo[%a]"
      Proc.pp s.me
      (Format.pp_print_option
         ~none:(fun ppf () -> Format.pp_print_string ppf "⊥")
         View.pp)
      s.current pp_status s.status labels s.content s.nextseqno
      (Seqs.pp Label.pp) s.buffer (plist Label.pp)
      (Label.Set.elements s.safe_labels)
      (Seqs.pp Label.pp) s.order s.nextconfirm s.nextreport Gid.pp s.highprimary
      (plist (fun ppf (q, x) ->
           Format.fprintf ppf "%a:%a" Proc.pp q Summary.pp x))
      (Proc.Map.bindings s.gotstate)
      Proc.Set.pp s.safe_exch (plist Gid.pp)
      (Gid.Set.elements s.registered)
      (Seqs.pp Format.pp_print_string)
      s.delay (plist Gid.pp)
      (Gid.Set.elements s.established)
      (plist (fun ppf (g, q) ->
           Format.fprintf ppf "%a:%a" Gid.pp g (Seqs.pp Label.pp) q))
      (Gid.Map.bindings s.buildorder);
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

module Engine (M : Msg_intf.S) (E : module type of Vs_impl.Engine.Make (M)) = struct
  open E

  let state_key st =
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    let plist pp_x ppf xs = Format.pp_print_list ~pp_sep:semi pp_x ppf xs in
    let mp ppf (m, q) = Format.fprintf ppf "%a@%a" M.pp m Proc.pp q in
    let gmap pp_x ppf m =
      plist (fun ppf (g, x) -> Format.fprintf ppf "%a:%a" Gid.pp g pp_x x) ppf
        (Gid.Map.bindings m)
    in
    let gints ppf m = gmap Format.pp_print_int ppf m in
    let pgints ppf m =
      plist
        (fun ppf ((p, g), n) ->
          Format.fprintf ppf "%a.%a=%d" Proc.pp p Gid.pp g n)
        ppf (Pg_map.bindings m)
    in
    Format.fprintf ppf
      "me%a|cur%a|vs[%a]|oq[%a]|fl[%a]|sl[%a]|fw[%a]|bs[%a]|ab[%a]|ss[%a]|rb[%a]|nd[%a]|ns[%a]|au[%a]|su[%a]"
      Proc.pp st.me
      (fun ppf -> function
        | None -> Format.pp_print_string ppf "⊥"
        | Some v -> View.pp ppf v)
      st.cur (gmap View.pp) st.views_seen
      (gmap (Seqs.pp M.pp)) st.outq
      (gmap (Seqs.pp M.pp)) st.fwd_log
      (gmap (Seqs.pp mp)) st.seq_log pgints st.fwd_seen pgints st.bcast_sent
      pgints st.acked_by pgints st.stable_sent
      (plist (fun ppf ((g, sn), x) ->
           Format.fprintf ppf "%a.%d=%a" Gid.pp g sn mp x))
      (Pg_map.bindings st.rcv_buf)
      gints st.next_deliver gints st.next_safe gints st.acked_upto gints
      st.stable_upto;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

module Net (M : Msg_intf.S) (N : module type of Vs_impl.Net.Make (M)) = struct
  open Vs_impl
  open N

  let state_key s =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    Format.fprintf ppf "ch[%a]|bl[%a]"
      (Format.pp_print_list ~pp_sep:semi (fun ppf ((src, dst), q) ->
           Format.fprintf ppf "%a>%a:%a" Proc.pp src Proc.pp dst
             (Seqs.pp (Packet.pp M.pp)) q))
      (Pg_map.bindings s.channels)
      (Format.pp_print_list ~pp_sep:semi (fun ppf (p, q) ->
           Format.fprintf ppf "%a-%a" Proc.pp p Proc.pp q))
      (List.sort_uniq compare s.blocked);
    (* Remaining fault budgets distinguish future behaviour, so they must
       be part of the dedup key whenever faults are possible; the lossless
       policy renders nothing, keeping the original key byte-identical. *)
    if Fault.is_faulty s.faults then
      Format.fprintf ppf "|f[%d,%d,%d]" s.dropped s.duplicated s.reordered;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

module Daemon = struct
  open Vs_impl.Daemon

  let state_key t =
    let buf = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer buf in
    let semi ppf () = Format.pp_print_string ppf ";" in
    Format.fprintf ppf "is%a|nx%a|nt[%a]|cp[%a]" View.Set.pp t.issued Gid.pp
      t.next_id
      (Format.pp_print_list ~pp_sep:semi (fun ppf (p, g) ->
           Format.fprintf ppf "%a=%a" Proc.pp p Gid.Bot.pp g))
      (Proc.Map.bindings t.notified)
      (Format.pp_print_list ~pp_sep:semi Proc.Set.pp)
      t.components;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
end

(* ---- composites ---- *)

module Stack (M : Msg_intf.S) (S : module type of Vs_impl.Stack.Make (M)) = struct
  open S
  module E = Engine (M) (S.E)
  module N = Net (M) (S.N)

  let state_key s =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (N.state_key s.net);
    Buffer.add_string buf "||";
    Buffer.add_string buf (Daemon.state_key s.daemon);
    Proc.Map.iter
      (fun p e ->
        Buffer.add_char buf '#';
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Buffer.add_string buf (E.state_key e))
      s.engines;
    Buffer.add_string buf "|p0";
    Proc.Set.to_buffer buf s.p0;
    Buffer.contents buf
end

module System (M : Msg_intf.S) (S : module type of Dvs_impl.System.Make (M)) = struct
  open S
  module Vsw = Vs_spec (Dvs_impl.Wire.Make (M)) (S.Vsw)
  module Node = Vs_to_dvs (M) (S.Node)

  let state_key s =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Vsw.state_key s.vs);
    Proc.Map.iter
      (fun p n ->
        Buffer.add_char buf '#';
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Node.state_key n))
      s.nodes;
    Buffer.contents buf
end

module Full_stack (M : Msg_intf.S) (S : module type of Full_system.Full_stack.Make (M)) =
struct
  open S
  module Stk = Stack (Dvs_impl.Wire.Make (M)) (S.Stk)
  module Node = Vs_to_dvs (M) (S.Node)

  let state_key s =
    let buf = Buffer.create 2048 in
    Buffer.add_string buf (Stk.state_key s.stk);
    Proc.Map.iter
      (fun p n ->
        Buffer.add_string buf "##";
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Node.state_key n))
      s.nodes;
    Buffer.contents buf
end

module To_impl = struct
  open To_broadcast.To_impl
  module Dvs = Dvs_spec (To_broadcast.To_msg) (To_broadcast.To_impl.Dvs)

  let state_key s =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Dvs.state_key s.dvs);
    Proc.Map.iter
      (fun p n ->
        Buffer.add_char buf '#';
        Proc.to_buffer buf p;
        Buffer.add_char buf ':';
        Buffer.add_string buf (Dvs_to_to.state_key n))
      s.nodes;
    Buffer.contents buf
end
