(* sim-chaos: the fault-injecting simulator on P-CLHT, repaired variant,
   chaos mode, with the differential baseline, on one domain.

   An op is a restart of the target: a crash, the reopen over its image,
   recovery and the audit. Set-up is a fresh process doing the program
   construction Hippo_sim.Harness.run does up front (repair included);
   it is timed on its own and kept out of the rates. The fleet then plays scenarios 0, 1, 2, ... of the
   seed until the time is up, through the harness's own
   configuration (Harness.interp_config, scenario_config,
   baseline_variant) and Scenario.run, exactly as Harness.run plays them.
   A two-scenario Harness.run on the interpreter tier at jobs 2 checks
   that the first two scenarios' digest is the same at that tier and
   width. *)

open Hippo_apps
module Harness = Hippo_sim.Harness
module Scenario = Hippo_sim.Scenario
module Samples = Measure.Samples

(* Every run plays at least the first [head] scenarios; their digest is
   what Recorded keeps per seed. *)
let head = 4

let config seed =
  {
    Harness.default_config with
    Harness.kind = App.Pclht;
    variant = App.Repaired;
    mode = Harness.Chaos;
    seed;
    jobs = 1;
    differential = true;
  }

let program kind variant =
  match App.program kind variant with Ok p -> p | Error e -> failwith e

(* The construction Harness.run does before its first scenario. *)
let build cfg =
  ( program cfg.Harness.kind cfg.Harness.variant,
    program cfg.Harness.kind (Harness.baseline_variant cfg.Harness.kind) )

(* What a fresh process does before its first scenario. *)
let probe () = ignore (build (config 0))

type scenario = {
  outcome : Scenario.outcome;
  wall_s : float;
  spans : App_spans.t option;
}

(* The wall time from a scenario's start, or the target's last restart,
   to each restart: one sample per op, in ms. *)
type restarts = { cycle_ms : Samples.t; mutable last : float }

let rec on_restart r (app : App.t) : App.t =
  {
    app with
    App.reopen =
      (fun ~pm_image ->
        let now = Measure.now () in
        Samples.add r.cycle_ms ((now -. r.last) *. 1e3);
        r.last <- now;
        Result.map (on_restart r) (app.App.reopen ~pm_image));
  }

let play cfg (prog, base) ~traced ~restarts index =
  let icfg = Harness.interp_config cfg in
  let spans = if traced then Some (App_spans.create ()) else None in
  let open_session variant p () =
    let app =
      App.wrap ~config:icfg ~nbuckets:cfg.Harness.nbuckets cfg.Harness.kind
        variant p
    in
    Ok (match spans with Some s -> App_spans.wrap s app | None -> app)
  in
  let open_target () =
    Result.map (on_restart restarts) (open_session cfg.Harness.variant prog ())
  in
  let t0 = Measure.now () in
  restarts.last <- t0;
  match
    Scenario.run ~seed:cfg.Harness.seed ~index (Harness.scenario_config cfg)
      ~make_app:open_target
      ~make_baseline:
        (open_session (Harness.baseline_variant cfg.Harness.kind) base)
      ()
  with
  | Ok outcome -> { outcome; wall_s = Measure.now () -. t0; spans }
  | Error e -> failwith e

(* Scenarios 0, 1, 2, ... of the seed while [more next] holds, on one
   domain: at two, OCaml 5 stops both domains for every minor collection
   and the 16 MiB images churn the major heap, so over ten seeds
   crashes_per_s spread 19 % and peak_rss_mb 10 %, with the CPUs about a
   third idle; at one they spread 3 % and 1 %. *)
type fleet = { played : scenario list; wall : float; cycle_ms : Samples.t }

let fleet cfg progs ~traced ~more =
  let restarts = { cycle_ms = Samples.create (); last = 0. } in
  let t0 = Measure.now () in
  let rec go i acc =
    if more i then go (i + 1) (play cfg progs ~traced ~restarts i :: acc)
    else List.rev acc
  in
  let played = go 0 [] in
  { played; wall = Measure.now () -. t0; cycle_ms = restarts.cycle_ms }

let total f fl = List.fold_left (fun n s -> n + f s.outcome) 0 fl.played
let crashes = total (fun o -> o.Scenario.crashes)

let fleet_digest scenarios =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun s -> s.outcome.Scenario.digest) scenarios)))

(* Per-layer metrics of the traced scenarios, and those only this
   workload has. *)
let layer_metrics cfg progs ~traced =
  let spans = App_spans.merge (List.filter_map (fun s -> s.spans) traced) in
  let wall = Samples.create () in
  List.iter (fun s -> Samples.add wall s.wall_s) traced;
  let first = List.filteri (fun i _ -> i < head) traced in
  let count f = List.fold_left (fun a s -> a + f s.outcome) 0 first in
  let icfg = Harness.interp_config cfg in
  let machine = Hippo_pmcheck.Interp.create icfg (fst progs) in
  let op_cost = spans.App_spans.op_cost_ns in
  ( Engine_layers.of_subject ~name:"pclht-serve" ~workload:Pclht.workload
      (Pclht.build ())
    @ [
        Measure.float "pmcheck.create_us_p50" "us"
          (Measure.sampled_us (fun () ->
               ignore (Hippo_pmcheck.Interp.create icfg (fst progs))));
        Measure.float "pmcheck.crash_image_us_p50" "us"
          (Measure.sampled_us (fun () ->
               ignore (Hippo_pmcheck.Interp.crash_image machine)));
        Measure.float "pmcheck.steps_per_op" "steps"
          (float_of_int spans.App_spans.op_steps
          /. float_of_int (Samples.count op_cost));
        Measure.float "pmcheck.ns_per_step" "ns"
          (App_spans.op_total spans *. 1e9
          /. float_of_int spans.App_spans.op_steps);
        Measure.float "perfmodel.sim_ns_p50" "sim_ns"
          (Samples.quantile op_cost 0.5);
        Measure.float "perfmodel.sim_ns_p99" "sim_ns"
          (Samples.quantile op_cost 0.99);
      ],
    [
      App_spans.us_p50 "apps.insert_us_p50" spans.App_spans.insert;
      App_spans.us_p50 "apps.read_us_p50" spans.App_spans.read;
      App_spans.us_p50 "apps.delete_us_p50" spans.App_spans.delete;
      App_spans.ms_p50 "apps.reopen_ms_p50" spans.App_spans.reopen;
      App_spans.ms_p50 "apps.check_ms_p50" spans.App_spans.check;
      Measure.float "sim.scenario_ms_p50" "ms" (Samples.median wall *. 1e3);
      Measure.int "sim.crashes" "count" (count (fun o -> o.Scenario.crashes));
      Measure.int "sim.recoveries" "count"
        (count (fun o -> o.Scenario.recoveries));
      Measure.int "sim.torn" "count" (count (fun o -> o.Scenario.torn));
      Measure.float "sim.harness_self_share" "ratio"
        (1. -. (App_spans.total spans /. Samples.sum wall));
    ] )

let run (ctx : Measure.ctx) : Measure.outcome =
  let cfg = config ctx.Measure.seed in
  let setup_s =
    Setup_probe.self_probe ~self:ctx.Measure.self ~workload:"sim-chaos"
      ~runs:21
  in
  let progs = build cfg in
  let budget = Measure.untraced_seconds ctx in
  let gc0 = Measure.gc_now () in
  let t0 = Measure.now () in
  let untraced =
    fleet cfg progs ~traced:false ~more:(fun next ->
        next < head || Measure.now () -. t0 < budget)
  in
  let n = List.length untraced.played in
  let traced =
    if ctx.Measure.trace then
      Some (fleet cfg progs ~traced:true ~more:(fun next -> next < n))
    else None
  in
  let scenarios = untraced.played in
  let traced_played = match traced with Some t -> t.played | None -> [] in
  let gc = Measure.gc_diff gc0 (Measure.gc_now ()) in
  let peak = Measure.peak_rss_mib () in
  let problems = ref [] in
  let violating =
    List.filter
      (fun s -> s.outcome.Scenario.violations <> [])
      (scenarios @ traced_played)
  in
  List.iter
    (fun s ->
      List.iter
        (fun (v : Scenario.violation) ->
          problems :=
            Printf.sprintf "scenario %d step %d: %s: %s"
              s.outcome.Scenario.index
              v.Scenario.step v.Scenario.kind v.Scenario.detail
            :: !problems)
        s.outcome.Scenario.violations)
    violating;
  (* the first scenarios against the recorded digest for this seed, and
     the first two against Harness.run on the other tier at jobs 2 *)
  let first = List.filteri (fun i _ -> i < head) scenarios in
  (match Recorded.sim_digest ctx.Measure.seed with
  | Some d when d <> fleet_digest first ->
      problems :=
        Printf.sprintf "fleet digest %s, recorded %s" (fleet_digest first) d
        :: !problems
  | _ -> ());
  (match
     Harness.run
       { cfg with Harness.scenarios = 2; jobs = 2; exec = `Interp }
   with
  | Error e -> problems := ("Harness.run: " ^ e) :: !problems
  | Ok r ->
      let two = List.filteri (fun i _ -> i < 2) scenarios in
      if r.Harness.digest <> fleet_digest two then
        problems :=
          "Harness.run at jobs 2 disagrees on the first two scenarios' digest"
          :: !problems);
  Printf.printf "fleet digest (first %d scenarios): %s\n" head
    (fleet_digest first);
  let traced_e2e, layer, info =
    match traced with
    | None -> ([], [], [])
    | Some t ->
        let layer, info = layer_metrics cfg progs ~traced:t.played in
        ( Measure.traced_end_to_end ~ops:(crashes t) ~wall_s:t.wall
            ~op_ms:t.cycle_ms,
          layer
          @ Measure.gc_metrics gc ~per:(crashes untraced + crashes t)
          @ [
              Measure.overhead_metric ~untraced_s:untraced.wall
                ~traced_s:t.wall;
            ],
          info )
  in
  let clock_ns =
    List.fold_left (fun a s -> a +. s.outcome.Scenario.clock_ns) 0. scenarios
  in
  {
    Measure.attempted = List.length scenarios + List.length traced_played;
    failed = List.length violating;
    problems = List.rev !problems;
    e2e =
      Measure.end_to_end ~setup_s ~peak_rss_mb:peak ~ops:(crashes untraced)
        ~wall_s:untraced.wall ~op_ms:untraced.cycle_ms
        ~sim_ns_per_op:(clock_ns /. float_of_int (crashes untraced));
    info =
      Measure.float "scenarios_per_s" "1/s"
        (float_of_int n /. untraced.wall)
      :: info;
    traced_e2e;
    layer;
  }
