(* The single-pass crash sweep: differential equivalence against the
   per-crash-point replay strategy, image-hash dedup and recovery
   memoization, the trace-free crash-point counter, and the Verify /
   Bugstudy wiring. *)

open Hippo_pmcheck
module Gen = Hippo_fuzz.Gen
module Verify = Hippo_engine.Verify
module Sweep = Hippo_bugstudy.Sweep

(* Small interpreter buffers: these programs touch a few cache lines and
   the suites below create hundreds of recovery machines. *)
let cfg =
  {
    Interp.default_config with
    Interp.vol_size = 1 lsl 12;
    stack_size = 1 lsl 14;
    global_size = 1 lsl 12;
    pm_size = 1 lsl 12;
  }

let setup = [ ("main", []) ]
let checker = Gen.checker_name

let sweep ?strategy ?jobs ?memo prog =
  Crashsim.sweep_with_stats ~config:cfg ?jobs ?strategy ?memo prog ~setup
    ~checker ~checker_args:[]

(* deterministic step programs (see Pmir_gen's checker-mode alphabet) *)
let prog_of steps = Gen.program_of_steps ~checker:true steps

(* ------------------------------------------------------------------ *)
(* differential property: single-pass == replay, at jobs 1 and 4 *)

let prop_strategies_identical =
  QCheck.Test.make ~count:40
    ~name:"single-pass dedup sweep == replay sweep, jobs {1,4}" Gen.arb_crash
    (fun prog ->
      let reference, _ = sweep ~strategy:`Replay ~jobs:1 prog in
      List.for_all
        (fun (strategy, jobs) -> fst (sweep ~strategy ~jobs prog) = reference)
        [ (`Replay, 4); (`Single_pass, 1); (`Single_pass, 4) ])

(* the sweep's stats must account for every crash point: runs + hits
   cover both images of every point *)
let prop_stats_account =
  QCheck.Test.make ~count:40 ~name:"dedup stats account for 2n image checks"
    Gen.arb_crash (fun prog ->
      let _, s = sweep ~strategy:`Single_pass prog in
      s.Crashsim.recovery_runs + s.Crashsim.memo_hits
      = 2 * s.Crashsim.crash_points
      && s.Crashsim.recovery_runs = s.Crashsim.distinct_images
      && s.Crashsim.distinct_images <= 2 * s.Crashsim.crash_points)

(* ------------------------------------------------------------------ *)
(* dedup and memoization units *)

let test_identical_images_memoized () =
  (* one fully-persisted pair, then two crash points: durable == working
     at both, so four image checks need exactly one recovery run *)
  let prog = prog_of [ Gen.S_pair (0, 1); Gen.S_crash; Gen.S_crash ] in
  let verdicts, s = sweep ~strategy:`Single_pass prog in
  Alcotest.(check int) "crash points" 2 (List.length verdicts);
  Alcotest.(check int) "distinct images" 1 s.Crashsim.distinct_images;
  Alcotest.(check int) "recovery runs" 1 s.Crashsim.recovery_runs;
  Alcotest.(check int) "memo hits" 3 s.Crashsim.memo_hits;
  Alcotest.(check bool) "all recover" true
    (List.for_all Crashsim.consistent verdicts)

let test_repeated_durable_images_hit_memo () =
  (* the durable image toggles A, B, A: the third crash point's images
     are already memoized *)
  let prog =
    prog_of
      [
        Gen.S_pair (0, 1); Gen.S_crash; Gen.S_pair (0, 2); Gen.S_crash;
        Gen.S_pair (0, 1); Gen.S_crash;
      ]
  in
  let _, s = sweep ~strategy:`Single_pass prog in
  Alcotest.(check int) "crash points" 3 s.Crashsim.crash_points;
  Alcotest.(check int) "distinct images" 2 s.Crashsim.distinct_images;
  Alcotest.(check int) "recovery runs" 2 s.Crashsim.recovery_runs;
  Alcotest.(check bool) "memo hit" true (s.Crashsim.memo_hits > 0)

let test_memo_reused_across_sweeps () =
  let prog =
    prog_of [ Gen.S_half (0, 1); Gen.S_crash; Gen.S_pair (1, 2); Gen.S_crash ]
  in
  let memo = Crashsim.Memo.create () in
  let v1, s1 = sweep ~strategy:`Single_pass ~memo prog in
  let v2, s2 = sweep ~strategy:`Single_pass ~memo prog in
  Alcotest.(check bool) "verdicts stable" true (v1 = v2);
  Alcotest.(check bool) "first sweep ran recovery" true
    (s1.Crashsim.recovery_runs > 0);
  Alcotest.(check int) "second sweep fully memoized" 0
    s2.Crashsim.recovery_runs;
  Alcotest.(check int) "every image check hit" (2 * s2.Crashsim.crash_points)
    s2.Crashsim.memo_hits;
  Alcotest.(check int) "memo counters accumulate"
    (Crashsim.Memo.misses memo) s1.Crashsim.recovery_runs

let test_half_persisted_pair_diverges () =
  (* slot persisted, shadow not: pessimistic loses the invariant, lucky
     keeps it — the durability-bug demonstration the sweep exists for *)
  let prog = prog_of [ Gen.S_half (0, 1); Gen.S_crash ] in
  match fst (sweep prog) with
  | [ v ] ->
      Alcotest.(check bool) "pessimistic LOST" false v.Crashsim.pessimistic_ok;
      Alcotest.(check bool) "lucky recovers" true v.Crashsim.lucky_ok
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs)

(* ------------------------------------------------------------------ *)
(* trace-free crash-point counting *)

let test_count_crash_points_trace_free () =
  let prog =
    prog_of
      [ Gen.S_crash; Gen.S_pair (0, 1); Gen.S_crash; Gen.S_crash ]
  in
  Alcotest.(check int) "counted" 3
    (Crashsim.count_crash_points ~config:cfg prog ~setup);
  let verdicts, _ = sweep prog in
  Alcotest.(check int) "matches sweep" (List.length verdicts) 3

(* ------------------------------------------------------------------ *)
(* incremental image hashing == ground-truth scan *)

let prop_digests_match_ground_truth =
  QCheck.Test.make ~count:30
    ~name:"incremental digests == Imghash.of_bytes of the images"
    Gen.arb_crash (fun prog ->
      let t =
        Interp.create { cfg with Interp.track_images = true } prog
      in
      ignore (Interp.call t "main" []);
      let mem = Interp.mem t in
      Imghash.equal_digest
        (Mem.working_digest mem)
        (Imghash.digest (Imghash.of_bytes (Mem.working_image mem)))
      && Imghash.equal_digest (Mem.durable_digest mem)
           (Imghash.digest (Imghash.of_bytes (Interp.crash_image t))))

(* ------------------------------------------------------------------ *)
(* recovery-then-re-crash chains and injected torn lines — the restart
   and image-perturbation primitives the scenario simulator drives *)

module R = Hippo_apps.Redis_mini

let test_recovery_then_recrash_chain () =
  let prog = R.build R.Manual in
  let rcfg = { cfg with Interp.pm_size = 1 lsl 13 } in
  let s1 = R.start ~config:rcfg ~nbuckets:4 prog in
  List.iter (fun k -> R.op_insert s1 ~k ~version:1) [ 1; 2; 3 ];
  let crash s =
    (Interp.crash_image s.R.interp, (Interp.mem s.R.interp).Mem.pm_brk)
  in
  let img1, brk1 = crash s1 in
  Alcotest.(check bool) "allocator mark persisted" true (brk1 > 0);
  let s2 =
    R.recover_attach (Interp.create ~pm_image:img1 ~pm_brk:brk1 rcfg prog)
  in
  Alcotest.(check int) "first recovery validates" 1
    (Interp.call s2.R.interp "cmd_check" []);
  Alcotest.(check int) "all inserts durable" 3
    (Interp.call s2.R.interp "cmd_count" []);
  (* the recovered allocator must continue past the live pool *)
  R.op_insert s2 ~k:9 ~version:1;
  Alcotest.(check bool) "pre-crash key survives the new insert" true
    (R.op_read s2 ~k:1 > 0);
  (* re-crash the recovered instance: second restart of the chain *)
  let img2, brk2 = crash s2 in
  let s3 =
    R.recover_attach (Interp.create ~pm_image:img2 ~pm_brk:brk2 rcfg prog)
  in
  Alcotest.(check int) "second recovery validates" 1
    (Interp.call s3.R.interp "cmd_check" []);
  Alcotest.(check int) "chain preserved every key" 4
    (Interp.call s3.R.interp "cmd_count" []);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d readable after two restarts" k)
        true
        (R.op_read s3 ~k > 0))
    [ 1; 2; 3; 9 ];
  (* negative control — the regression this test pins: dropping the
     allocator mark re-issues live addresses, and the next insert
     overwrites the pool from its base *)
  let sbad = R.recover_attach (Interp.create ~pm_image:img2 rcfg prog) in
  let corrupted =
    try
      R.op_insert sbad ~k:10 ~version:1;
      Interp.call sbad.R.interp "cmd_check" [] = 0
    with Mem.Trap _ -> true
  in
  Alcotest.(check bool) "without pm_brk the pool is destroyed" true corrupted

let prop_torn_dirty_digests_match_ground_truth =
  QCheck.Test.make ~count:30
    ~name:"torn dirty lines keep incremental digests == rescan"
    Gen.arb_crash (fun prog ->
      let t = Interp.create { cfg with Interp.track_images = true } prog in
      ignore (Interp.call t "main" []);
      let mem = Interp.mem t and ps = Interp.pstate t in
      List.iteri
        (fun i r ->
          Pstate.tear_dirty mem r ~keep_word:(fun w -> (w + i) land 1 = 0))
        (Pstate.dirty_records ps);
      Imghash.equal_digest (Mem.durable_digest mem)
        (Imghash.digest (Imghash.of_bytes (Interp.crash_image t)))
      && Imghash.equal_digest (Mem.working_digest mem)
           (Imghash.digest (Imghash.of_bytes (Mem.working_image mem))))

(* ------------------------------------------------------------------ *)
(* Verify: crash consistency of original vs repaired, shared memo *)

let test_verify_crash_consistency () =
  let original = prog_of [ Gen.S_half (0, 1); Gen.S_crash ] in
  let repaired = prog_of [ Gen.S_pair (0, 1); Gen.S_crash ] in
  let memo = Crashsim.Memo.create () in
  let r =
    Verify.check_crash_consistency ~config:cfg ~memo ~setup ~checker
      ~checker_args:[] ~original ~repaired ()
  in
  Alcotest.(check bool) "original inconsistent" false r.Verify.original_consistent;
  Alcotest.(check bool) "repaired consistent" true r.Verify.repaired_consistent;
  Alcotest.(check bool) "improved" true (Verify.crash_improved r);
  (* the repaired sweep's working image equals the original's (harm-free
     repair), so the shared memo answers at least one of its checks *)
  Alcotest.(check bool) "memo shared across programs" true
    (r.Verify.repaired_stats.Crashsim.memo_hits
    > 2 * r.Verify.repaired_stats.Crashsim.crash_points
      - r.Verify.repaired_stats.Crashsim.distinct_images);
  let o =
    Verify.with_crash_report
      {
        Verify.residual_bugs = [];
        outputs_match = true;
        pm_working_match = true;
        crash_consistent_improved = None;
      }
      r
  in
  Alcotest.(check (option bool)) "outcome field set" (Some true)
    o.Verify.crash_consistent_improved

(* ------------------------------------------------------------------ *)
(* Bugstudy: corpus of crash subjects, per-domain memos *)

let crash_subjects () =
  List.map
    (fun (id, steps) ->
      {
        Sweep.cs_id = id;
        cs_program = lazy (prog_of steps);
        cs_setup = setup;
        cs_checker = checker;
        cs_checker_args = [];
      })
    [
      ("half", [ Gen.S_half (0, 1); Gen.S_crash ]);
      ("pair", [ Gen.S_pair (0, 1); Gen.S_crash; Gen.S_crash ]);
      ( "toggle",
        [
          Gen.S_pair (1, 1); Gen.S_crash; Gen.S_pair (1, 2); Gen.S_crash;
          Gen.S_pair (1, 1); Gen.S_crash;
        ] );
      ("mixed", [ Gen.S_pair (2, 3); Gen.S_crash; Gen.S_half (2, 4); Gen.S_crash ]);
    ]

let test_crash_corpus_jobs_identical () =
  let strip (s, v, _) = (s.Sweep.cs_id, v) in
  let r1, memo1 = Sweep.crash_corpus ~config:cfg ~jobs:1 (crash_subjects ()) in
  let r4, _ = Sweep.crash_corpus ~config:cfg ~jobs:4 (crash_subjects ()) in
  Alcotest.(check bool) "verdicts identical at jobs 1 and 4" true
    (List.map strip r1 = List.map strip r4);
  Alcotest.(check bool) "aggregate memo saw work" true
    (Crashsim.Memo.misses memo1 > 0)

(* The sweep at the default machine sizes: same verdicts at jobs 1 and 2. *)
let prop_sweep_jobs_determinism =
  QCheck.Test.make ~name:"sweep verdicts: jobs 1/2 agree"
    ~count:20 Gen.arb_crash (fun prog ->
      QCheck.assume (Gen.has_checker prog);
      let sweep ~jobs =
        Crashsim.sweep ~config:Interp.default_config ~jobs prog ~setup
          ~checker ~checker_args:[]
      in
      sweep ~jobs:1 = sweep ~jobs:2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_strategies_identical;
    QCheck_alcotest.to_alcotest prop_stats_account;
    Alcotest.test_case "identical images memoized" `Quick
      test_identical_images_memoized;
    Alcotest.test_case "repeated durable images hit memo" `Quick
      test_repeated_durable_images_hit_memo;
    Alcotest.test_case "memo reused across sweeps" `Quick
      test_memo_reused_across_sweeps;
    Alcotest.test_case "half-persisted pair diverges" `Quick
      test_half_persisted_pair_diverges;
    Alcotest.test_case "count crash points without a trace" `Quick
      test_count_crash_points_trace_free;
    QCheck_alcotest.to_alcotest prop_digests_match_ground_truth;
    Alcotest.test_case "recovery-then-re-crash chain" `Quick
      test_recovery_then_recrash_chain;
    QCheck_alcotest.to_alcotest prop_torn_dirty_digests_match_ground_truth;
    Alcotest.test_case "verify crash consistency, shared memo" `Quick
      test_verify_crash_consistency;
    Alcotest.test_case "crash corpus identical across jobs" `Quick
      test_crash_corpus_jobs_identical;
    QCheck_alcotest.to_alcotest prop_sweep_jobs_determinism;
  ]
