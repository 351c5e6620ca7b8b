(* Per-layer totals for the traced run.

   Each operation runs under one [Obs.profile] root span. The benchmark
   wraps every public call it makes into a layer in an [Obs.span] of its
   own ("query.parse", "core.answer", "serve.render", ...), and the
   program's own stage spans nest under those calls. Each operation's
   tree is folded into per-layer totals when it closes: a layer's self
   time is its spans' wall time minus the part their child spans cover,
   and the root's self time is the share of the operation no layer span
   covers ([unattributed_share]). With the Obs sink off, which is how
   the timed runs go, [Obs.span] is exactly the wrapped call and [root]
   adds nothing. *)

module Obs = Refq_obs.Obs

type total = { mutable wall : float; mutable self : float; mutable calls : int }

type t = {
  on : bool;
  totals : (string, total) Hashtbl.t;
  counters : (string, int) Hashtbl.t;  (** Obs counter deltas *)
}

let create ~on = { on; totals = Hashtbl.create 32; counters = Hashtbl.create 32 }

(* A tracer that records nothing. *)
let off = create ~on:false

(* The program's stage spans, renamed to the layer they time. The
   per-fragment spans are evaluation, like their parent. The benchmark's
   own spans are already named after their layer. *)
let layer_of_span name =
  match name with
  | "reformulate" -> "reform.reformulate"
  | "plan" -> "gcov.plan"
  | "evaluate" -> "engine.evaluate"
  | "join" -> "engine.join"
  | "saturate" -> "saturation.saturate"
  | n when String.length n > 9 && String.sub n 0 9 = "fragment-" ->
    "engine.evaluate"
  | n -> n

let rec graft t (n : Obs.node) =
  let name = layer_of_span n.Obs.name in
  let tot =
    match Hashtbl.find_opt t.totals name with
    | Some tot -> tot
    | None ->
      let tot = { wall = 0.; self = 0.; calls = 0 } in
      Hashtbl.replace t.totals name tot;
      tot
  in
  let children =
    List.fold_left (fun acc (c : Obs.node) -> acc +. c.Obs.wall_s) 0. n.Obs.children
  in
  tot.wall <- tot.wall +. n.Obs.wall_s;
  tot.self <- tot.self +. (n.Obs.wall_s -. children);
  tot.calls <- tot.calls + n.Obs.calls;
  List.iter (graft t) n.Obs.children

(* Run [f] as one root span named [name] ("op" for an operation). *)
let root t name f =
  if not t.on then f ()
  else begin
    let x, report = Obs.profile ~name f in
    graft t report.Obs.root;
    List.iter
      (fun (k, v) ->
        Hashtbl.replace t.counters k
          (v + Option.value ~default:0 (Hashtbl.find_opt t.counters k)))
      report.Obs.totals;
    x
  end

let find t name = Hashtbl.find_opt t.totals name
let self_s t name = match find t name with Some tot -> tot.self | None -> 0.
let wall_s t name = match find t name with Some tot -> tot.wall | None -> 0.
let calls t name = match find t name with Some tot -> tot.calls | None -> 0
let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

(* Every layer's totals, largest self time first, for the log. *)
let breakdown t =
  Hashtbl.fold (fun name tot acc -> (name, tot) :: acc) t.totals []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.self a.self)
