(* The repair pipeline's per-layer metrics (engine, alias, staticcheck)
   over a workload's subject programs. A subject goes through
   Driver.repair then Driver.optimize with one analysis cache, as
   `hippocrates fix --optimize` does. *)

open Hippo_core
module Cache = Hippo_engine.Cache
module Event = Hippo_engine.Event
module Optimize = Hippo_engine.Optimize

type run = {
  input : Hippo_pmir.Program.t;
  repair : Driver.result;
  opt : Optimize.outcome;
  events : Event.t list;  (** in emission order; empty when untraced *)
  andersen_runs : int;
  ms : float;  (** repair plus optimize, wall clock *)
}

let repair_optimize ~traced ~name ~workload input =
  let cache = Cache.create () in
  let events = ref [] in
  let trace = if traced then Some (fun e -> events := e :: !events) else None in
  let t0 = Measure.now () in
  let repair = Driver.repair ?trace ~cache ~name ~workload input in
  let o = Driver.optimize ?trace ~cache ~name repair.Driver.repaired in
  let ms = (Measure.now () -. t0) *. 1e3 in
  {
    input;
    repair;
    opt = o.Driver.t_outcome;
    events = List.rev !events;
    andersen_runs = Cache.andersen_runs cache;
    ms;
  }

let phases =
  [
    "locate"; "compute"; "reduce"; "hoist"; "apply"; "verify"; "opt-analyze";
    "opt-apply"; "opt-verify";
  ]

(* [passes] are traced passes over the same subjects: phase times are
   summed over a pass and the median taken over passes; counts come from
   the first pass, and Andersen and the static checker are timed once on
   its programs. *)
let metrics passes =
  let first = List.hd passes in
  let phase pass =
    let name =
      "engine." ^ String.map (fun c -> if c = '-' then '_' else c) pass ^ "_s"
    in
    let pass_s runs =
      List.fold_left
        (fun a r ->
          List.fold_left
            (fun a (e : Event.t) ->
              if e.Event.pass = pass then a +. e.Event.dur_s else a)
            a r.events)
        0. runs
    in
    Measure.float name "s" (Measure.median_of (List.map pass_s passes))
  in
  let count f = List.fold_left (fun a r -> a + f r) 0 first in
  List.map phase phases
  @ [
      Measure.int "engine.bugs" "count"
        (count (fun r -> List.length r.repair.Driver.bugs));
      Measure.int "engine.fixes" "count"
        (count (fun r -> List.length r.repair.Driver.plan.Fix.fixes));
      Measure.int "engine.opt_removed" "count"
        (count (fun r -> List.length r.opt.Optimize.o_removals));
      Measure.int "engine.trace_events" "count"
        (count (fun r -> r.repair.Driver.trace_events));
      Measure.float "alias.andersen_ms" "ms"
        (Measure.sum_ms
           (fun r -> ignore (Hippo_alias.Andersen.analyze r.input))
           first);
      Measure.float "alias.andersen_runs" "1/program"
        (float_of_int (count (fun r -> r.andersen_runs))
        /. float_of_int (List.length first));
      Measure.float "staticcheck.check_ms" "ms"
        (Measure.sum_ms
           (fun r -> ignore (Driver.check_static r.repair.Driver.repaired))
           first);
    ]

(* Five traced repairs of one subject, for workloads whose subject is a
   single app program. *)
let of_subject ~name ~workload input =
  metrics
    (List.init 5 (fun _ -> [ repair_optimize ~traced:true ~name ~workload input ]))
