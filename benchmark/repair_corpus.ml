(* repair-corpus: the paper's user path. Every corpus case goes through
   Driver.repair then Driver.optimize with one analysis cache per case
   (what `hippocrates fix --optimize` does), serially, in an order
   shuffled from the seed on each pass. *)

open Hippo_pmcheck
open Hippo_core
open Hippo_pmdk_mini
open Hippo_apps
module Optimize = Hippo_engine.Optimize
module Samples = Measure.Samples

(* 11 PMDK, 2 P-CLHT and 10 memcached cases. *)
let cases () = Array.of_list (Bugs.all @ Pclht.cases @ Memcached_mini.cases)

(* What a fresh process does before its first repair: build the case
   programs. *)
let probe () =
  Array.iter (fun c -> ignore (Lazy.force c.Case.program)) (cases ())

(* Simulated cost of a program under the case's own workload. *)
let sim_cost prog (case : Case.t) =
  let t =
    Interp.create
      { Interp.default_config with trace = false; cost = Some Cost.default }
      prog
  in
  case.Case.workload t;
  Interp.cost_ns t

type case_run = { case : Case.t; run : Engine_layers.run; problem : string option }

let run_case ~traced (case : Case.t) =
  let run =
    Engine_layers.repair_optimize ~traced ~name:case.Case.id
      ~workload:case.Case.workload
      (Lazy.force case.Case.program)
  in
  let r = run.Engine_layers.repair and oc = run.Engine_layers.opt in
  let problem =
    if r.Driver.bugs = [] then Some "no bug found"
    else if not (Verify.effective r.Driver.verification) then
      Some "repair not effective (residual bugs)"
    else if not (Verify.harm_free r.Driver.verification) then
      Some "repair not harm-free"
    else if
      not
        (List.exists
           (fun (_, s) -> Case.shape_matches case.Case.expected_shape s)
           r.Driver.plan.Fix.per_bug)
    then Some "fix shape does not match the expected shape"
    else if not oc.Optimize.o_report_equal then
      Some "optimizer changed the static reports"
    else if oc.Optimize.o_reverted then Some "optimizer reverted"
    else None
  in
  { case; run; problem }

let shuffled ~seed ~pass cases =
  let a = Array.copy cases in
  let st = Hippo_parallel.Stream.state ~seed [ 0xC0A5; pass ] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let run_pass ~seed ~traced cases pass =
  Array.to_list (Array.map (run_case ~traced) (shuffled ~seed ~pass cases))

(* Simulated cost of each case's optimized output, in case order. *)
let case_costs runs =
  List.sort (fun a b -> compare a.case.Case.id b.case.Case.id) runs
  |> List.map (fun c -> sim_cost c.run.Engine_layers.opt.Optimize.o_prog c.case)

(* Per-layer metrics of the traced passes: the engine layers, then the
   interpreter on the case programs. [costs] are the cases' simulated
   costs. *)
let layer_metrics ~traced_passes ~cases ~costs =
  let prog0 = Lazy.force cases.(0).Case.program in
  let machine = Interp.create Interp.default_config prog0 in
  (* every case's workload on a fresh machine, as verify runs it *)
  let steps = ref 0 and workload_s = ref 0. in
  Array.iter
    (fun (case : Case.t) ->
      let t = Interp.create Interp.default_config (Lazy.force case.Case.program) in
      let (), dt = Measure.timed (fun () -> case.Case.workload t) in
      workload_s := !workload_s +. dt;
      steps := !steps + Interp.steps t)
    cases;
  let cost = Samples.create () in
  List.iter (Samples.add cost) costs;
  Engine_layers.metrics (List.map (List.map (fun c -> c.run)) traced_passes)
  @ [
      Measure.float "pmcheck.create_us_p50" "us"
        (Measure.sampled_us (fun () ->
             ignore (Interp.create Interp.default_config prog0)));
      Measure.float "pmcheck.crash_image_us_p50" "us"
        (Measure.sampled_us (fun () -> ignore (Interp.crash_image machine)));
      Measure.float "pmcheck.steps_per_op" "steps"
        (float_of_int !steps /. float_of_int (Array.length cases));
      Measure.float "pmcheck.ns_per_step" "ns"
        (!workload_s *. 1e9 /. float_of_int !steps);
      Measure.float "perfmodel.sim_ns_p50" "sim_ns" (Samples.quantile cost 0.5);
      Measure.float "perfmodel.sim_ns_p99" "sim_ns" (Samples.quantile cost 0.99);
    ],
  [ Measure.float "pmcheck.workload_ms" "ms" (!workload_s *. 1e3) ]

let run (ctx : Measure.ctx) : Measure.outcome =
  let setup_s =
    Setup_probe.self_probe ~self:ctx.Measure.self ~workload:"repair-corpus"
      ~runs:31
  in
  let cases = cases () in
  probe ();
  let samples = Samples.create () in
  let problems = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let note_runs samples runs =
    List.iter
      (fun c ->
        incr attempted;
        Samples.add samples c.run.Engine_layers.ms;
        match c.problem with
        | None -> ()
        | Some p ->
            incr failed;
            problems := Printf.sprintf "%s: %s" c.case.Case.id p :: !problems)
      runs
  in
  (* at least five passes, so p90 rests on 100 samples or more *)
  let budget = Measure.untraced_seconds ctx in
  let gc0 = Measure.gc_now () in
  let t0 = Measure.now () in
  let rec untraced pass acc =
    if pass >= 5 && Measure.now () -. t0 >= budget then List.rev acc
    else begin
      let runs = run_pass ~seed:ctx.Measure.seed ~traced:false cases pass in
      note_runs samples runs;
      untraced (pass + 1) (runs :: acc)
    end
  in
  let passes = untraced 0 [] in
  let untraced_s = Measure.now () -. t0 in
  let gc = Measure.gc_diff gc0 (Measure.gc_now ()) in
  let peak = Measure.peak_rss_mib () in
  let costs = case_costs (List.hd passes) in
  if costs <> case_costs (List.nth passes (List.length passes - 1)) then
    problems := "simulated costs differ between passes" :: !problems;
  (* summed in case order: float addition is not associative *)
  let corpus_cost = List.fold_left ( +. ) 0. costs in
  let traced_e2e, layer, info =
    if not ctx.Measure.trace then ([], [], [])
    else begin
      let traced_samples = Samples.create () in
      let t1 = Measure.now () in
      let traced_passes =
        List.mapi
          (fun pass _ ->
            let runs =
              run_pass ~seed:ctx.Measure.seed ~traced:true cases pass
            in
            note_runs traced_samples runs;
            runs)
          passes
      in
      let traced_s = Measure.now () -. t1 in
      let layer, info = layer_metrics ~traced_passes ~cases ~costs in
      ( Measure.traced_end_to_end ~ops:(Samples.count traced_samples)
          ~wall_s:traced_s ~op_ms:traced_samples,
        layer
        @ Measure.gc_metrics gc ~per:(Samples.count samples)
        @ [ Measure.overhead_metric ~untraced_s ~traced_s ],
        info )
    end
  in
  {
    Measure.attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    e2e =
      Measure.end_to_end ~setup_s ~peak_rss_mb:peak
        ~ops:(Samples.count samples) ~wall_s:untraced_s ~op_ms:samples
        ~sim_ns_per_op:(corpus_cost /. float_of_int (List.length costs));
    info = Measure.float "repaired_cost_ns" "sim_ns" corpus_cost :: info;
    traced_e2e;
    layer;
  }
