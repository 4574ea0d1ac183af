(* fuzz-campaign: Fuzzer.run on the seed with a fixed exec budget, a
   2-domain pool and no corpus directory, repeated until the time is up.
   A campaign is deterministic, so every repetition does the same work
   and finds the same violations: those of `hippocrates fuzz --execs 400
   --seed N`. *)

open Hippo_pmcheck
module Fuzzer = Hippo_fuzz.Fuzzer
module Oracle = Hippo_fuzz.Oracle
module Gen = Hippo_fuzz.Gen
module Pool = Hippo_parallel.Pool
module Stream = Hippo_parallel.Stream
module Samples = Measure.Samples

let jobs = 2
let budget = 400

let config ~seed ~jobs =
  { Fuzzer.default_config with Fuzzer.seed; jobs; max_execs = budget }

(* What a fresh process does before its first campaign: start the
   worker domains. *)
let probe () = Pool.run ~domains:jobs ignore

(* The first round of a campaign: the generator's candidates, built from
   the same streams Fuzzer.run uses for round 0. *)
let round0 seed =
  List.init 16 (fun slot ->
      let rand = Stream.state ~seed [ 0; 0; slot ] in
      if Random.State.int rand 3 = 0 then Gen.random_crash rand
      else Gen.random_mixed rand)

let layer_metrics ~first:(s : Fuzzer.summary) ~seed =
  let candidates = round0 seed in
  (* the same evaluations untimed, then one span each *)
  let (), untraced_s =
    Measure.timed (fun () ->
        List.iter (fun p -> ignore (Oracle.evaluate p)) candidates)
  in
  let evaluate_ms = Samples.create () in
  let (), traced_s =
    Measure.timed (fun () ->
        List.iter
          (fun p ->
            let _, dt = Measure.timed (fun () -> Oracle.evaluate p) in
            Samples.add evaluate_ms (dt *. 1e3))
          candidates)
  in
  (* the candidates' main on fresh machines: interpretation only *)
  let steps = ref 0 and run_s = ref 0. in
  List.iter
    (fun p ->
      let t = Interp.create Oracle.interp_config p in
      let t0 = Measure.now () in
      (try ignore (Exec.call t "main" []) with
      | Mem.Trap _ | Interp.Aborted | Interp.Out_of_fuel
      | Interp.Stopped_at_crash ->
          ());
      run_s := !run_s +. (Measure.now () -. t0);
      steps := !steps + Interp.steps t)
    candidates;
  let prog = List.hd candidates in
  let machine = Interp.create Oracle.interp_config prog in
  [
    Measure.float "fuzz.evaluate_ms_p50" "ms" (Samples.median evaluate_ms);
    Measure.int "fuzz.corpus_size" "count" s.Fuzzer.corpus_size;
    Measure.float "fuzz.mutant_share" "ratio"
      (float_of_int s.Fuzzer.mutant_count
      /. float_of_int (s.Fuzzer.mutant_count + s.Fuzzer.gen_count));
    Measure.float "crashsim.memo_hit_ratio" "ratio"
      (float_of_int s.Fuzzer.memo_hits
      /. float_of_int (s.Fuzzer.memo_hits + s.Fuzzer.memo_misses));
    Measure.float "pmcheck.create_us_p50" "us"
      (Measure.sampled_us (fun () ->
           ignore (Interp.create Oracle.interp_config prog)));
    Measure.float "pmcheck.crash_image_us_p50" "us"
      (Measure.sampled_us (fun () -> ignore (Interp.crash_image machine)));
    Measure.float "pmcheck.steps_per_op" "steps"
      (float_of_int !steps /. float_of_int (List.length candidates));
    Measure.float "pmcheck.ns_per_step" "ns"
      (!run_s *. 1e9 /. float_of_int !steps);
    Measure.overhead_metric ~untraced_s ~traced_s;
  ]

let run (ctx : Measure.ctx) : Measure.outcome =
  let setup_s =
    Setup_probe.self_probe ~self:ctx.Measure.self ~workload:"fuzz-campaign"
      ~runs:11
  in
  let seed = ctx.Measure.seed in
  let time_budget = Measure.untraced_seconds ctx in
  let gc0 = Measure.gc_now () in
  let t0 = Measure.now () in
  let rec campaigns acc =
    if acc <> [] && Measure.now () -. t0 >= time_budget then List.rev acc
    else campaigns (Fuzzer.run (config ~seed ~jobs) :: acc)
  in
  let summaries = campaigns [] in
  let elapsed = Measure.now () -. t0 in
  let gc = Measure.gc_diff gc0 (Measure.gc_now ()) in
  let peak = Measure.peak_rss_mib () in
  let first = List.hd summaries in
  let sum f = List.fold_left (fun a s -> a + f s) 0 summaries in
  let execs = sum (fun s -> s.Fuzzer.execs) in
  let violations = sum (fun s -> List.length s.Fuzzer.found) in
  (* repetitions find the same violations (checked below): list them once *)
  let problems =
    ref
      (List.rev_map
         (fun (f : Fuzzer.found) ->
           Printf.sprintf "%s violation in every campaign" f.Fuzzer.f_oracle)
         first.Fuzzer.found)
  in
  (* every campaign against the first, the first against the recorded
     values and against itself at jobs 1 *)
  if
    List.exists
      (fun s ->
        s.Fuzzer.corpus_digest <> first.Fuzzer.corpus_digest
        || s.Fuzzer.edges <> first.Fuzzer.edges)
      summaries
  then problems := "repeated campaigns differ" :: !problems;
  (match Recorded.fuzz ctx.Measure.seed with
  | Some (digest, edges)
    when digest <> first.Fuzzer.corpus_digest || edges <> first.Fuzzer.edges ->
      problems :=
        Printf.sprintf
          "campaign 0: corpus %s with %d edges, recorded %s with %d"
          first.Fuzzer.corpus_digest first.Fuzzer.edges digest edges
        :: !problems
  | _ -> ());
  let serial = Fuzzer.run (config ~seed ~jobs:1) in
  if
    serial.Fuzzer.corpus_digest <> first.Fuzzer.corpus_digest
    || serial.Fuzzer.edges <> first.Fuzzer.edges
  then problems := "campaign 0 differs between jobs 1 and jobs 2" :: !problems;
  Printf.printf "campaign 0: corpus %s, %d edges\n" first.Fuzzer.corpus_digest
    first.Fuzzer.edges;
  let layer =
    if not ctx.Measure.trace then []
    else
      layer_metrics ~first ~seed
      @ Measure.gc_metrics gc ~per:(2 * execs)
  in
  {
    Measure.attempted = execs;
    failed = violations;
    problems = List.rev !problems;
    e2e =
      [
        Measure.float "setup_s" "s" setup_s;
        Measure.float "peak_rss_mb" "MiB" peak;
        Measure.float "execs_per_s" "1/s" (float_of_int (2 * execs) /. elapsed);
        Measure.int "edges" "count" first.Fuzzer.edges;
      ];
    info = [];
    traced_e2e = [];
    layer;
  }
