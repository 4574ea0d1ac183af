(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index).

     bench/main.exe                 — run every experiment (quick params)
     bench/main.exe --full          — paper-scale parameters for Fig. 4
     bench/main.exe fig1            — §3 bug-study table
     bench/main.exe table_effectiveness — §6.1 (all 23 bugs fixed)
     bench/main.exe table_static    — static checker vs dynamic ground truth
     bench/main.exe table_heuristics    — §6.1 (Full-AA == Trace-AA)
     bench/main.exe fig3            — §6.2 accuracy vs developer fixes
     bench/main.exe fig4            — §6.3 Redis YCSB throughput
     bench/main.exe fix_stats       — §6.3 fix statistics
     bench/main.exe fig5            — §6.4 offline overhead
     bench/main.exe code_size       — §6.4 code-size impact
     bench/main.exe ablate_reuse    — A1: clone reuse on/off
     bench/main.exe ablate_reduction— A2: fix reduction on/off
     bench/main.exe ablate_heuristic— A3: cost-model robustness
     bench/main.exe table_main      — per-phase engine timing breakdown
                                      (ablation sweep, shared analysis cache)
     bench/main.exe table_par       — corpus-sweep wall-clock scaling over
                                      worker domains (jobs 1 vs 2 vs 4)
     bench/main.exe table_crash     — single-pass dedup crash sweep vs
                                      per-crash-point replay
     bench/main.exe table_fuzz      — coverage-guided fuzzing vs blind
                                      generation at equal exec counts
     bench/main.exe table_serve     — the KV service under YCSB traffic:
                                      manual vs repaired throughput and
                                      latency percentiles (not part of the
                                      default sweep: --serve-records /
                                      --serve-ops default to one million);
                                      drives both apps (redis and pclht)
     bench/main.exe table_opt       — flush/fence optimizer over every
                                      repaired corpus and app subject:
                                      static sites removed, report
                                      identity, perfmodel cost deltas and
                                      the P-CLHT crash-verdict gauntlet
     bench/main.exe table_sim       — fault-injecting scenario fleets:
                                      scenarios/s per mode, crash and
                                      violation counts, digest identity
                                      across jobs widths
     bench/main.exe micro           — bechamel micro-benchmarks

   `--jobs N` sets the domain budget for every corpus sweep (default:
   HIPPO_JOBS or the machine's recommended domain count). `--jobs 1` is
   byte-identical to the historical serial harness. `--seed N` seeds the
   seed-threaded experiments (table_fuzz; default 0). `--json FILE`
   writes the results of json-aware experiments (table_crash,
   table_fuzz, table_serve, table_opt, table_sim) to FILE. The run exits
   1 when one of their exact cross-checks (verdict identity, digest
   determinism, agreement, detection) comes out false. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core
module Apply = Hippo_engine.Apply
open Hippo_pmdk_mini
open Hippo_apps

let section title = Fmt.pr "@.=== %s ===@." title

module Sweep = Hippo_bugstudy.Sweep

(* Domain budget for every corpus sweep; set by --jobs. *)
let jobs = ref (Hippo_parallel.Pool.default_domains ())

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1: the 26-bug study *)

let fig1 () =
  section "Fig. 1 — study of 26 PMDK durability bugs (paper: 13 / 28 / 66)";
  List.iter
    (fun r -> Fmt.pr "  %a@." Hippo_bugstudy.Dataset.pp_row r)
    (Hippo_bugstudy.Dataset.figure1 ());
  let n, total = Hippo_bugstudy.Dataset.interprocedural_fraction () in
  Fmt.pr "  interprocedural developer fixes: %d/%d (%d%%) (paper: 16/26, 62%%)@."
    n total (100 * n / total)

(* ------------------------------------------------------------------ *)
(* Corpus plumbing shared by E2/E3/E4/E7 *)

let repair_case ?(options = Driver.default_options) ?cache (case : Case.t) =
  Driver.repair ~options ?cache ~name:case.Case.id
    ~workload:case.Case.workload
    (Lazy.force case.Case.program)

(* E2 — §6.1 effectiveness *)

let table_effectiveness () =
  section "§6.1 — effectiveness: fix all 23 reproduced bugs";
  let all_ok = ref true in
  let pmdk_ok = ref 0 in
  let pmdk_results, _cache = Sweep.corpus ~jobs:!jobs Bugs.all in
  List.iter
    (fun (_, r) ->
      let ok =
        r.Driver.bugs <> []
        && Verify.effective r.Driver.verification
        && Verify.harm_free r.Driver.verification
      in
      if ok then incr pmdk_ok else all_ok := false)
    pmdk_results;
  Fmt.pr "  %-22s bugs: %2d (expected 11)   repaired+verified: %s@."
    "PMDK (unit tests)" !pmdk_ok
    (if !pmdk_ok = 11 then "yes" else "NO");
  let app_row label case expected ~count =
    let r = repair_case case in
    let n = count r in
    let ok =
      Verify.effective r.Driver.verification
      && Verify.harm_free r.Driver.verification
    in
    if (not ok) || n <> expected then all_ok := false;
    Fmt.pr "  %-22s bugs: %2d (expected %2d)   repaired+verified: %s@." label
      n expected
      (if ok then "yes" else "NO")
  in
  app_row "P-CLHT (RECIPE)" (List.hd Pclht.cases) 2 ~count:(fun r ->
      Case.static_bug_sites r.Driver.bugs);
  app_row "memcached-pm" (List.hd Memcached_mini.cases) 10 ~count:(fun r ->
      List.length (Report.dedup r.Driver.bugs));
  Fmt.pr "  total: %d bugs (paper: 23); all repaired with zero residual: %s@."
    (!pmdk_ok + 12)
    (if !all_ok && !pmdk_ok = 11 then "yes" else "NO")

(* E3 — §6.1 heuristic equivalence *)

let table_heuristics () =
  section "§6.1 — Full-AA vs Trace-AA produce identical fixes";
  let all_cases =
    Bugs.all @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ]
  in
  let identical = ref 0 in
  let sweep_with oracle =
    fst
      (Sweep.corpus
         ~options:{ Driver.default_options with oracle }
         ~jobs:!jobs all_cases)
  in
  let sig_of (_, (r : Driver.result)) =
    List.sort String.compare (List.map Fix.to_string r.Driver.plan.Fix.fixes)
  in
  List.iter2
    (fun ((case, _) as full) trace ->
      let same = sig_of full = sig_of trace in
      if same then incr identical;
      Fmt.pr "  %-14s %s@." case.Case.id
        (if same then "identical" else "DIFFERENT"))
    (sweep_with Driver.Full_aa)
    (sweep_with Driver.Trace_aa);
  Fmt.pr "  %d/%d subjects with identical fix sets (paper: all)@." !identical
    (List.length all_cases)

(* E4 — Fig. 3: accuracy vs developer fixes *)

let fig3 () =
  section "Fig. 3 — Hippocrates fixes vs PMDK developer fixes";
  Fmt.pr "  %-7s %-40s %-42s %s@." "issue" "Hippocrates fix" "developer fix"
    "comparison";
  let identical = ref 0 and equivalent = ref 0 in
  List.iter
    (fun ((case : Case.t), (r : Driver.result)) ->
      let shape =
        match
          List.find_opt
            (fun (_, s) -> Case.shape_matches case.Case.expected_shape s)
            r.Driver.plan.Fix.per_bug
        with
        | Some (_, s) -> Fix.shape_to_string s
        | None -> "(unexpected)"
      in
      let comparison =
        match case.Case.dev_fix with
        | Some Case.Dev_inter_flush_fence ->
            incr identical;
            "functionally identical"
        | Some Case.Dev_portable_flush ->
            incr equivalent;
            "equivalent; PMDK's fix is more portable"
        | None -> "-"
      in
      Fmt.pr "  #%-6s %-40s %-42s %s@."
        (match case.Case.issue with Some n -> string_of_int n | None -> "?")
        shape
        (Fmt.str "%a" Case.pp_dev_fix case.Case.dev_fix)
        comparison)
    (fst (Sweep.corpus ~jobs:!jobs Bugs.all));
  Fmt.pr
    "  functionally identical: %d/11 (paper: 8/11); equivalent: %d/11 \
     (paper: 3/11)@."
    !identical !equivalent

(* ------------------------------------------------------------------ *)
(* E5 — Fig. 4: Redis YCSB throughput *)

let fig4 ~full () =
  section
    (if full then
       "Fig. 4 — Redis YCSB throughput (paper parameters: 10k/10k, 20 trials)"
     else "Fig. 4 — Redis YCSB throughput (quick parameters)");
  let v = Redis_bench.repair_variants () in
  Fmt.pr "  repair: %d bugs, %d fixes (%d interprocedural)@."
    (List.length v.Redis_bench.full_result.Driver.bugs)
    (List.length v.Redis_bench.full_result.Driver.plan.Fix.fixes)
    (Fix.count_hoisted v.Redis_bench.full_result.Driver.plan);
  List.iter
    (fun (name, prog) ->
      Fmt.pr "  %-14s residual bugs: %d@." name
        (List.length (Redis_bench.residual_bugs prog)))
    [
      ("Redis-pm", v.Redis_bench.manual);
      ("Redis_H-intra", v.Redis_bench.h_intra);
      ("Redis_H-full", v.Redis_bench.h_full);
    ];
  let trials = if full then 20 else 5 in
  let record_count = if full then 10_000 else 2_000 in
  let op_count = if full then 10_000 else 2_000 in
  Fmt.pr "  simulated kops/s, %d trials, %d records, %d ops:@." trials
    record_count op_count;
  let rows = Redis_bench.figure4 ~trials ~record_count ~op_count v in
  List.iter (fun r -> Fmt.pr "    %a@." Redis_bench.pp_row r) rows;
  let load = List.hd rows in
  let open Hippo_perfmodel in
  Fmt.pr
    "  Load: H-full/Redis-pm = %.2fx (paper: ~1.07x); H-full/H-intra range: \
     %.1fx-%.1fx (paper: 2.4x-11.7x)@."
    (load.Redis_bench.full.Stats.mean /. load.Redis_bench.manual_pm.Stats.mean)
    (List.fold_left
       (fun acc r ->
         min acc
           (r.Redis_bench.full.Stats.mean /. r.Redis_bench.intra.Stats.mean))
       infinity rows)
    (List.fold_left
       (fun acc r ->
         max acc
           (r.Redis_bench.full.Stats.mean /. r.Redis_bench.intra.Stats.mean))
       0.0 rows);
  v

(* E6 — §6.3 fix statistics *)

let fix_stats ?variants () =
  section "§6.3 — fix statistics for the Redis repair";
  let v =
    match variants with Some v -> v | None -> Redis_bench.repair_variants ()
  in
  let plan = v.Redis_bench.full_result.Driver.plan in
  let hoists =
    List.filter_map
      (function Fix.Hoist h -> Some h | Fix.Intra _ -> None)
      plan.Fix.fixes
  in
  let depth d = List.length (List.filter (fun h -> h.Fix.depth = d) hoists) in
  Fmt.pr
    "  fixes: %d total, %d intraprocedural, %d interprocedural (paper: 50 \
     total, 12 inter)@."
    (List.length plan.Fix.fixes)
    (Fix.count_intra plan) (List.length hoists);
  Fmt.pr "  hoist depths: %d at 1 frame, %d at 2 frames (paper: 10 and 2)@."
    (depth 1) (depth 2);
  Fmt.pr "  fix reduction eliminated %d raw fixes@."
    v.Redis_bench.full_result.Driver.reduce_eliminated

(* ------------------------------------------------------------------ *)
(* E7 — Fig. 5: offline overhead *)

let fig5 () =
  section "Fig. 5 — offline overhead of Hippocrates";
  Fmt.pr "  %-22s %10s %13s %11s %10s@." "target" "IR instrs" "trace events"
    "time" "peak heap";
  let show name (r : Driver.result) =
    Fmt.pr "  %-22s %10d %13d %10.3fs %8dMB@." name r.Driver.input_instrs
      r.Driver.trace_events r.Driver.time_s
      (r.Driver.peak_heap_bytes / (1024 * 1024))
  in
  let pmdk_results = List.map snd (fst (Sweep.corpus ~jobs:!jobs Bugs.all)) in
  let instrs, events, time, mem =
    List.fold_left
      (fun (instrs, events, time, mem) (r : Driver.result) ->
        ( instrs + r.Driver.input_instrs,
          events + r.Driver.trace_events,
          time +. r.Driver.time_s,
          max mem r.Driver.peak_heap_bytes ))
      (0, 0, 0.0, 0) pmdk_results
  in
  Fmt.pr "  %-22s %10d %13d %10.3fs %8dMB@." "PMDK (11 unit tests)" instrs
    events time
    (mem / (1024 * 1024));
  show "P-CLHT (RECIPE)" (repair_case (List.hd Pclht.cases));
  show "memcached-pm" (repair_case (List.hd Memcached_mini.cases));
  let redis =
    Driver.repair ~name:"redis" ~workload:Redis_bench.repair_workload
      (Redis_mini.build Redis_mini.Flush_free)
  in
  show "Redis (flush-free)" redis;
  Fmt.pr
    "  (paper: 2s-5m09s, 147-870MB on 37-203 KLOC of C; same shape — the \
     largest target dominates)@."

(* E8 — §6.4 code-size impact *)

let code_size ?variants () =
  section "§6.4 — code-size impact of persistent subprograms (Redis)";
  let v =
    match variants with Some v -> v | None -> Redis_bench.repair_variants ()
  in
  let r = v.Redis_bench.full_result in
  let added = r.Driver.output_instrs - r.Driver.input_instrs in
  Fmt.pr "  IR instructions: %d -> %d (+%d, +%.3f%%)@." r.Driver.input_instrs
    r.Driver.output_instrs added
    (100.0 *. float_of_int added /. float_of_int r.Driver.input_instrs);
  Fmt.pr
    "  persistent clones created: %d (paper: +105 IR lines, +0.013%%, with \
     clone reuse)@."
    r.Driver.apply_stats.Apply.clones_created

(* ------------------------------------------------------------------ *)
(* A1 — ablation: clone reuse *)

let ablate_reuse () =
  section "A1 — persistent-subprogram clone reuse (on vs off)";
  let prog = Redis_mini.build Redis_mini.Flush_free in
  let run reuse =
    Driver.repair
      ~options:{ Driver.default_options with clone_reuse = reuse }
      ~name:"redis" ~workload:Redis_bench.repair_workload prog
  in
  let on = run true and off = run false in
  let fmt (r : Driver.result) =
    Fmt.str "instrs %d->%d (clones %d)" r.Driver.input_instrs
      r.Driver.output_instrs r.Driver.apply_stats.Apply.clones_created
  in
  Fmt.pr "  reuse on : %s@." (fmt on);
  Fmt.pr "  reuse off: %s@." (fmt off);
  Fmt.pr "  both verified clean: %b / %b@."
    (Verify.effective on.Driver.verification)
    (Verify.effective off.Driver.verification)

(* A2 — ablation: fix reduction *)

let ablate_reduction () =
  section "A2 — fix reduction (Phase 2) on vs off";
  let cases = Bugs.all @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ] in
  let ons, _ = Sweep.corpus ~jobs:!jobs cases in
  let offs, _ =
    Sweep.corpus
      ~options:{ Driver.default_options with reduction = false }
      ~jobs:!jobs cases
  in
  List.iter2
    (fun ((case : Case.t), (on : Driver.result)) (_, (off : Driver.result)) ->
      Fmt.pr
        "  %-14s raw fixes: %2d; with reduction: %2d applied; without: %2d \
         applied; both clean: %b@."
        case.Case.id on.Driver.raw_fix_count
        (List.length on.Driver.plan.Fix.fixes)
        (List.length off.Driver.plan.Fix.fixes)
        (Verify.effective on.Driver.verification
        && Verify.effective off.Driver.verification))
    ons offs

(* A3 — ablation: cost-model robustness *)

let ablate_heuristic () =
  section "A3 — Fig. 4 conclusions under different cost models";
  let v = Redis_bench.repair_variants () in
  let spec =
    {
      (Hippo_ycsb.Workload.default_spec Hippo_ycsb.Workload.A) with
      record_count = 1000;
      op_count = 1000;
    }
  in
  List.iter
    (fun (label, cost) ->
      let tput prog =
        Hippo_perfmodel.Timed.throughput_kops
          (Redis_bench.trial ~cost prog spec ~seed:1)
      in
      let ti = tput v.Redis_bench.h_intra
      and tm = tput v.Redis_bench.manual
      and tf = tput v.Redis_bench.h_full in
      Fmt.pr
        "  %-16s H-intra %7.0f  Redis-pm %7.0f  H-full %7.0f  (full/intra \
         %.2fx, full/pm %.2fx)@."
        label ti tm tf (tf /. ti) (tf /. tm))
    [
      ("default", Cost.default);
      ("fence-heavy", Cost.fence_heavy);
      ("cheap-vol-flush", Cost.cheap_vol_flush);
    ];
  Fmt.pr
    "  (the interprocedural advantage must survive fence-heavy constants \
     and shrink when volatile flushes are free)@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per experiment pipeline *)

let micro () =
  section "bechamel micro-benchmarks (one per experiment pipeline)";
  let open Bechamel in
  let listing5 = Lazy.force (List.hd Bugs.all).Case.program in
  let text = Printer.to_string listing5 in
  let clht = Pclht.build () in
  let tests =
    [
      Test.make ~name:"fig1_aggregate"
        (Staged.stage (fun () -> Hippo_bugstudy.Dataset.figure1 ()));
      Test.make ~name:"pmir_parse"
        (Staged.stage (fun () -> Parser.program text));
      Test.make ~name:"pmir_validate"
        (Staged.stage (fun () -> Validate.check listing5));
      Test.make ~name:"andersen_analyze"
        (Staged.stage (fun () -> Hippo_alias.Andersen.analyze clht));
      Test.make ~name:"pmcheck_clht_workload"
        (Staged.stage (fun () ->
             let t = Interp.create Interp.default_config clht in
             Pclht.workload t;
             Interp.exit_check t;
             Interp.bugs t));
      Test.make ~name:"repair_pmdk_452"
        (Staged.stage (fun () -> repair_case (List.nth Bugs.all 1)));
      Test.make ~name:"repair_pclht"
        (Staged.stage (fun () -> repair_case (List.hd Pclht.cases)));
      Test.make ~name:"ycsb_generate_ops"
        (Staged.stage (fun () ->
             Hippo_ycsb.Workload.ops
               (Hippo_ycsb.Workload.default_spec Hippo_ycsb.Workload.A)
               ~seed:1));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Fmt.pr "  %-28s %12.1f ns/run@." name ns
          | _ -> Fmt.pr "  %-28s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* E8 — static checker: detection vs dynamic ground truth *)

module SAdapter = Hippo_staticcheck.Adapter

let dynamic_bugs_of (case : Case.t) =
  let prog = Lazy.force case.Case.program in
  let t = Interp.create { Interp.default_config with Interp.trace = true } prog in
  (try case.Case.workload t with Interp.Stopped_at_crash -> ());
  Interp.exit_check t;
  (prog, Interp.bugs t)

let table_static () =
  section
    "static checker — detection vs dynamic ground truth (23 corpus bugs)";
  let compare_case (case : Case.t) =
    let prog, dyn = dynamic_bugs_of case in
    let static_ = (Driver.check_static prog).Hippo_staticcheck.Checker.bugs in
    (dyn, static_, SAdapter.compare_reports ~static_ ~dynamic:dyn)
  in
  let print_misses (c : SAdapter.comparison) =
    List.iter
      (fun b -> Fmt.pr "      MISSED %a@." Report.pp_bug b)
      c.SAdapter.missed;
    List.iter
      (fun (b : Report.bug) ->
        Fmt.pr "      extra  %a via %s@." Report.pp_bug b
          (Trace.stack_to_string b.Report.store.Report.stack))
      c.SAdapter.extra
  in
  (* PMDK: one bug per unit test; detected = every dynamic site covered *)
  let pmdk_det = ref 0 and pmdk_fp = ref 0 in
  List.iter
    (fun (case : Case.t) ->
      let dyn, _, c = compare_case case in
      let detected = dyn <> [] && c.SAdapter.missed = [] in
      if detected then incr pmdk_det;
      pmdk_fp := !pmdk_fp + List.length c.SAdapter.extra;
      Fmt.pr "  %-12s dynamic sites: %d  matched: %d  missed: %d  extra: %d%s@."
        case.Case.id
        (List.length c.SAdapter.matched + List.length c.SAdapter.missed)
        (List.length c.SAdapter.matched)
        (List.length c.SAdapter.missed)
        (List.length c.SAdapter.extra)
        (if detected then "" else "  NOT DETECTED");
      print_misses c)
    Bugs.all;
  (* the applications: unit = distinct (store, chain) dynamic site *)
  let app_row label case =
    let _, _, c = compare_case case in
    let dyn_sites = List.length c.SAdapter.matched + List.length c.SAdapter.missed in
    Fmt.pr "  %-12s dynamic sites: %d  matched: %d  missed: %d  extra: %d@."
      label dyn_sites
      (List.length c.SAdapter.matched)
      (List.length c.SAdapter.missed)
      (List.length c.SAdapter.extra);
    print_misses c;
    (List.length c.SAdapter.matched, dyn_sites, List.length c.SAdapter.extra)
  in
  let clht_tp, clht_n, clht_fp = app_row "P-CLHT" (List.hd Pclht.cases) in
  let mc_tp, mc_n, mc_fp = app_row "memcached-pm" (List.hd Memcached_mini.cases) in
  let detected = !pmdk_det + clht_tp + mc_tp in
  let total = 11 + clht_n + mc_n in
  Fmt.pr
    "  total detected: %d/%d (threshold: >= 20/23)   false positives: %d@."
    detected total
    (!pmdk_fp + clht_fp + mc_fp);
  Fmt.pr "  static repair closes the loop: %s@."
    (let ok =
       List.for_all
         (fun (case : Case.t) ->
           let r =
             Driver.repair ~detector:Driver.Static ~name:case.Case.id
               ~workload:case.Case.workload
               (Lazy.force case.Case.program)
           in
           Verify.effective r.Driver.verification
           && Verify.harm_free r.Driver.verification)
         Bugs.all
     in
     if ok then "zero residual dynamic bugs on all PMDK cases"
     else "RESIDUAL DYNAMIC BUGS REMAIN")

(* ------------------------------------------------------------------ *)
(* E9 — engine: per-phase breakdown + shared-analysis ablation sweep *)

let table_main () =
  section
    "engine — per-phase timing breakdown (ablation sweep, shared analysis \
     cache)";
  let cache = Hippo_engine.Cache.create () in
  let case = List.hd Pclht.cases in
  let configs =
    [
      ("default", Driver.default_options);
      ("no-hoist", { Driver.default_options with hoisting = false });
      ("no-reduction", { Driver.default_options with reduction = false });
      ("no-reuse", { Driver.default_options with clone_reuse = false });
    ]
  in
  let events =
    List.concat_map
      (fun (label, options) ->
        let r = repair_case ~options ~cache case in
        Fmt.pr "  %-14s fixes: %2d  verified: %s@." label
          (List.length r.Driver.plan.Fix.fixes)
          (if
             Verify.effective r.Driver.verification
             && Verify.harm_free r.Driver.verification
           then "yes"
           else "NO");
        r.Driver.events)
      configs
  in
  Fmt.pr "  per-phase breakdown (%s, %d configurations):@." case.Case.id
    (List.length configs);
  Fmt.pr "%a" Hippo_engine.Event.pp_table events;
  List.iter
    (fun (slot, computed, reused) ->
      Fmt.pr "  cache %-8s computed %d, reused %d@." slot computed reused)
    (Hippo_engine.Cache.stats cache);
  Fmt.pr "  Andersen points-to runs across the sweep: %d (expected 1 — \
          computed once, not once per configuration)@."
    (Hippo_engine.Cache.andersen_runs cache)

(* E10 — corpus-sweep scaling over worker domains *)

let table_par () =
  section "parallel — corpus-sweep wall-clock scaling over worker domains";
  let cases =
    Bugs.all @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ]
  in
  (* force once up front so no run pays the one-time program construction *)
  List.iter (fun (c : Case.t) -> ignore (Lazy.force c.Case.program)) cases;
  let plan_sig results =
    List.concat_map
      (fun (_, (r : Driver.result)) ->
        List.map Fix.to_string r.Driver.plan.Fix.fixes)
      results
  in
  let run jobs =
    (* wall clock, not Sys.time: CPU time sums over domains and would hide
       any speedup *)
    let t0 = Unix.gettimeofday () in
    let results, cache = Sweep.corpus ~jobs cases in
    (Unix.gettimeofday () -. t0, results, cache)
  in
  Fmt.pr "  %d cases; recommended domain count on this host: %d@."
    (List.length cases)
    (Domain.recommended_domain_count ());
  let base_t, base_r, _ = run 1 in
  Fmt.pr "  jobs %2d: %7.3fs  %7s  (baseline)@." 1 base_t "1.00x";
  List.iter
    (fun jobs ->
      let t, r, cache = run jobs in
      Fmt.pr "  jobs %2d: %7.3fs  %6.2fx  (plans %s baseline; %d analysis \
              computes across worker caches)@."
        jobs t (base_t /. t)
        (if plan_sig r = plan_sig base_r then "identical to" else "DIFFER from")
        (List.fold_left
           (fun acc (_, c, _) -> acc + c)
           0
           (Hippo_engine.Cache.stats cache)))
    [ 2; 4 ];
  Fmt.pr
    "  (speedup tracks physical cores: a 1-core host pins every row near \
     1.00x, a 4-core host should reach >= 2x at jobs 4)@."

(* E11 — crash-sweep: single-pass dedup vs per-crash-point replay *)

let counter_pmir =
  {pmir|
; shadow counter: value at [0], shadow at [64]; the shadow store is
; never flushed, so every crash point loses it — and every durable
; image is distinct (the dedup-hostile case).
func @cnt_init() {
entry:
  %c = call @pm_alloc(128)
  store.i64 0 -> %c @ "cnt.c":1
  %s = gep %c, 64
  store.i64 0 -> %s @ "cnt.c":2
  flush.clwb %c
  flush.clwb %s
  fence.sfence
  ret
}

func @cnt_bump() {
entry:
  %c = call @pm_base()
  %s = gep %c, 64
  %x0 = load.i64 %c
  %x = add %x0, 1
  store.i64 %x -> %c @ "cnt.c":10
  flush.clwb %c
  fence.sfence
  store.i64 %x -> %s @ "cnt.c":12
  crash @ "cnt.c":14
  ret
}

func @cnt_check() {
entry:
  %c = call @pm_base()
  %s = gep %c, 64
  %a = load.i64 %c
  %b = load.i64 %s
  %e = eq %a, %b
  ret %e
}
|pmir}

let pingpong_pmir =
  {pmir|
; correctly-persisted one-bit toggle: the durable image cycles between
; two states, so a sweep of any length needs only a handful of recovery
; runs (the dedup-friendly case).
func @pp_init() {
entry:
  %c = call @pm_alloc(64)
  store.i64 0 -> %c @ "pp.c":1
  flush.clwb %c
  fence.sfence
  ret
}

func @pp_flip() {
entry:
  %c = call @pm_base()
  %x = load.i64 %c
  %y = sub 1, %x
  store.i64 %y -> %c @ "pp.c":6
  flush.clwb %c
  fence.sfence
  crash @ "pp.c":9
  ret
}

func @pp_check() {
entry:
  %c = call @pm_base()
  %x = load.i64 %c
  %ok = lt %x, 2
  ret %ok
}
|pmir}

let crash_subjects () =
  let parsed name text =
    try Parser.program text
    with Parser.Parse_error { line; msg } ->
      Fmt.failwith "bench %s: parse error at line %d: %s" name line msg
  in
  let clht_setup =
    [ ("clht_init", [ 4 ]) ]
    @ List.concat_map
        (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
        (List.init 40 (fun k -> k + 1))
    @ [ ("clht_put", [ 3; 999 ]) ]
  in
  [
    ( "p-clht",
      Pclht.build (),
      clht_setup,
      "clht_recover_check" );
    ( "counter",
      parsed "counter" counter_pmir,
      ("cnt_init", []) :: List.init 150 (fun _ -> ("cnt_bump", [])),
      "cnt_check" );
    ( "pingpong",
      parsed "pingpong" pingpong_pmir,
      ("pp_init", []) :: List.init 150 (fun _ -> ("pp_flip", [])),
      "pp_check" );
  ]

let table_crash () =
  section
    "crash — single-pass dedup sweep vs per-crash-point replay (--jobs 1)";
  Fmt.pr
    "  %-10s %6s %9s %9s %10s %10s %8s %s@." "subject" "n" "distinct"
    "runs" "replay" "single" "speedup" "verdicts";
  let rows =
    List.map
      (fun (id, prog, setup, checker) ->
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (Unix.gettimeofday () -. t0, r)
        in
        let t_sp, (v_sp, stats) =
          time (fun () ->
              Crashsim.sweep_with_stats ~jobs:1
                ~strategy:`Single_pass prog ~setup ~checker ~checker_args:[])
        in
        let t_rp, (v_rp, _) =
          time (fun () ->
              Crashsim.sweep_with_stats ~jobs:1 ~strategy:`Replay
                prog ~setup ~checker ~checker_args:[])
        in
        let v_sp4 =
          Crashsim.sweep ~jobs:4 prog ~setup ~checker
            ~checker_args:[]
        in
        let identical = v_sp = v_rp && v_sp = v_sp4 in
        Fmt.pr "  %-10s %6d %9d %9d %9.3fs %9.3fs %7.1fx %s@." id
          stats.Crashsim.crash_points stats.Crashsim.distinct_images
          stats.Crashsim.recovery_runs t_rp t_sp (t_rp /. t_sp)
          (if identical then "identical" else "DIFFER");
        (id, stats, t_rp, t_sp, identical))
      (crash_subjects ())
  in
  let tot_rp = List.fold_left (fun a (_, _, r, _, _) -> a +. r) 0.0 rows in
  let tot_sp = List.fold_left (fun a (_, _, _, s, _) -> a +. s) 0.0 rows in
  let all_identical = List.for_all (fun (_, _, _, _, i) -> i) rows in
  Fmt.pr
    "  total: replay %.3fs, single-pass %.3fs, speedup %.1fx (threshold: >= \
     5x); verdicts %s across strategies and jobs {1,4}@."
    tot_rp tot_sp (tot_rp /. tot_sp)
    (if all_identical then "identical" else "DIFFER");
  `Assoc
    [
      ( "subjects",
        `List
          (List.map
             (fun (id, (s : Crashsim.stats), t_rp, t_sp, identical) ->
               `Assoc
                 [
                   ("subject", `String id);
                   ("crash_points", `Int s.Crashsim.crash_points);
                   ("distinct_pessimistic", `Int s.Crashsim.distinct_pessimistic);
                   ("distinct_lucky", `Int s.Crashsim.distinct_lucky);
                   ("distinct_images", `Int s.Crashsim.distinct_images);
                   ("recovery_runs", `Int s.Crashsim.recovery_runs);
                   ("memo_hits", `Int s.Crashsim.memo_hits);
                   ("replay_s", `Float t_rp);
                   ("single_pass_s", `Float t_sp);
                   ("speedup", `Float (t_rp /. t_sp));
                   ("verdicts_identical", `Bool identical);
                 ])
             rows) );
      ("replay_total_s", `Float tot_rp);
      ("single_pass_total_s", `Float tot_sp);
      ("speedup", `Float (tot_rp /. tot_sp));
      ("verdicts_identical", `Bool all_identical);
    ]

(* fuzz — coverage-guided mutation vs coverage-blind generation ------- *)

let seed = ref 0

let table_fuzz () =
  section
    (Fmt.str
       "fuzz — guided mutation vs blind generation at equal exec counts \
        (seed %d, --jobs %d)"
       !seed !jobs);
  Fmt.pr "  %-8s %8s %8s %10s %8s %s@." "execs" "guided" "blind" "corpus"
    "violations" "guided>blind";
  let rows =
    List.map
      (fun execs ->
        let s =
          Hippo_fuzz.Fuzzer.run
            {
              Hippo_fuzz.Fuzzer.default_config with
              Hippo_fuzz.Fuzzer.seed = !seed;
              jobs = !jobs;
              max_execs = execs;
            }
        in
        let ahead = s.Hippo_fuzz.Fuzzer.edges > s.Hippo_fuzz.Fuzzer.blind_edges in
        Fmt.pr "  %-8d %8d %8d %10d %8d %s@." execs
          s.Hippo_fuzz.Fuzzer.edges s.Hippo_fuzz.Fuzzer.blind_edges
          s.Hippo_fuzz.Fuzzer.corpus_size
          (List.length s.Hippo_fuzz.Fuzzer.found)
          (if ahead then "yes" else "NO");
        (execs, s, ahead))
      [ 64; 128; 256 ]
  in
  let all_ahead = List.for_all (fun (_, _, a) -> a) rows in
  Fmt.pr
    "  guided coverage strictly exceeds the blind baseline at every exec \
     count: %s@."
    (if all_ahead then "yes" else "NO");
  `Assoc
    [
      ("seed", `Int !seed);
      ( "rows",
        `List
          (List.map
             (fun (execs, (s : Hippo_fuzz.Fuzzer.summary), ahead) ->
               `Assoc
                 [
                   ("execs", `Int execs);
                   ("guided_edges", `Int s.Hippo_fuzz.Fuzzer.edges);
                   ("blind_edges", `Int s.Hippo_fuzz.Fuzzer.blind_edges);
                   ("corpus_size", `Int s.Hippo_fuzz.Fuzzer.corpus_size);
                   ("corpus_digest", `String s.Hippo_fuzz.Fuzzer.corpus_digest);
                   ("violations", `Int (List.length s.Hippo_fuzz.Fuzzer.found));
                   ("guided_ahead", `Bool ahead);
                 ])
             rows) );
      ("guided_ahead_all", `Bool all_ahead);
    ]

(* serve — the KV service under million-op YCSB traffic --------------- *)

let serve_records = ref 1_000_000
let serve_ops = ref 1_000_000

let table_serve () =
  section
    (Fmt.str
       "serve — workload A over the KV service: manual vs repaired vs \
        optimized (%d records, %d ops, 4 workers, seed %d, --jobs %d)"
       !serve_records !serve_ops !seed !jobs);
  let module Drive = Hippo_serve.Drive in
  let module Hist = Hippo_perfmodel.Stats.Hist in
  let workers = 4 in
  let apps = [ App.Redis; App.Pclht ] in
  let per_app =
    Hippo_parallel.Pool.run ~domains:(max 1 !jobs) (fun pool ->
        List.map
          (fun kind ->
            ( kind,
              List.map
                (fun variant ->
                  match
                    Drive.run_inproc ~pool ~app:kind ~variant
                      ~workload:Hippo_ycsb.Workload.A ~records:!serve_records
                      ~ops:!serve_ops ~workers ~seed:!seed
                  with
                  | Ok o -> (variant, o)
                  | Error e ->
                      Fmt.failwith "table_serve (%s): %s"
                        (App.kind_to_string kind) e)
                [ App.Manual; App.Repaired; App.Optimized ] ))
          apps)
  in
  (* simulated throughput (deterministic, the perfmodel number) next to
     wall clock (hardware-dependent, informational) *)
  let sim_kops reqs ns = float_of_int reqs /. (ns /. 1e9) /. 1e3 in
  Fmt.pr
    "  %-16s %10s %10s %8s %8s %8s %8s %9s@." "variant" "load-kops" "run-kops"
    "p50" "p95" "p99" "p99.9" "count";
  List.iter
    (fun (_, outcomes) ->
      List.iter
        (fun (_, (o : Drive.outcome)) ->
          Fmt.pr
            "  %-16s %10.1f %10.1f %7.0fn %7.0fn %7.0fn %7.0fn %9d  (wall: \
             load %.1fs, run %.1fs)@."
            o.Drive.app_name
            (sim_kops o.Drive.load_reqs o.Drive.sim_load_ns)
            (sim_kops o.Drive.run_reqs o.Drive.sim_run_ns)
            (Hist.p50 o.Drive.hist) (Hist.p95 o.Drive.hist)
            (Hist.p99 o.Drive.hist) (Hist.p999 o.Drive.hist) o.Drive.count
            o.Drive.wall_load_s o.Drive.wall_run_s)
        outcomes)
    per_app;
  let agrees_of outcomes =
    Drive.agrees
      (List.assoc App.Manual outcomes)
      (List.assoc App.Repaired outcomes)
    && Drive.agrees
         (List.assoc App.Repaired outcomes)
         (List.assoc App.Optimized outcomes)
  in
  (* over the whole session (load + run): the run phase alone can sit
     within float noise of repaired when the removed fences are on the
     insert path only *)
  let opt_not_slower outcomes =
    let kops (o : Drive.outcome) =
      sim_kops (o.Drive.load_reqs + o.Drive.run_reqs)
        (o.Drive.sim_load_ns +. o.Drive.sim_run_ns)
    in
    kops (List.assoc App.Optimized outcomes)
    >= kops (List.assoc App.Repaired outcomes)
  in
  List.iter
    (fun (kind, outcomes) ->
      Fmt.pr
        "  %s: repaired and optimized match manual on every verdict, the \
         final count and the store digest: %s; optimized sim-kops >= \
         repaired: %s@."
        (App.kind_to_string kind)
        (if agrees_of outcomes then "yes" else "NO")
        (if opt_not_slower outcomes then "yes" else "NO"))
    per_app;
  let row (o : Drive.outcome) =
    `Assoc
      [
        ("variant", `String o.Drive.app_name);
        ("records", `Int o.Drive.records);
        ("final_records", `Int o.Drive.final_records);
        ("load_reqs", `Int o.Drive.load_reqs);
        ("run_reqs", `Int o.Drive.run_reqs);
        ("sim_load_kops", `Float (sim_kops o.Drive.load_reqs o.Drive.sim_load_ns));
        ("sim_run_kops", `Float (sim_kops o.Drive.run_reqs o.Drive.sim_run_ns));
        ("wall_load_s", `Float o.Drive.wall_load_s);
        ("wall_run_s", `Float o.Drive.wall_run_s);
        ("p50_ns", `Float (Hist.p50 o.Drive.hist));
        ("p95_ns", `Float (Hist.p95 o.Drive.hist));
        ("p99_ns", `Float (Hist.p99 o.Drive.hist));
        ("p999_ns", `Float (Hist.p999 o.Drive.hist));
        ("count", `Int o.Drive.count);
        ("check", `Bool o.Drive.check);
        ("digest", `String (Fmt.str "%014x" o.Drive.digest));
      ]
  in
  `Assoc
    [
      ("workload", `String "A");
      ("workers", `Int workers);
      ("seed", `Int !seed);
      ( "apps",
        `List
          (List.map
             (fun (kind, outcomes) ->
               `Assoc
                 [
                   ("app", `String (App.kind_to_string kind));
                   ("manual", row (List.assoc App.Manual outcomes));
                   ("repaired", row (List.assoc App.Repaired outcomes));
                   ("optimized", row (List.assoc App.Optimized outcomes));
                   ("agrees", `Bool (agrees_of outcomes));
                   ("opt_not_slower", `Bool (opt_not_slower outcomes));
                 ])
             per_app) );
      ("agrees_all", `Bool (List.for_all (fun (_, o) -> agrees_of o) per_app));
    ]

(* opt — the flush/fence optimizer: savings and do-no-harm ------------ *)

let clht_sweep_setup =
  [ ("clht_init", [ 4 ]) ]
  @ List.concat_map
      (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
      (List.init 20 (fun k -> k + 1))
  @ [ ("clht_put", [ 3; 999 ]) ]

let table_opt () =
  section
    (Fmt.str
       "opt — flush/fence optimizer over repaired corpus and app subjects \
        (--jobs %d)"
       !jobs);
  let module O = Hippo_engine.Optimize in
  let module Timed = Hippo_perfmodel.Timed in
  let sim_cost prog workload =
    let t =
      Interp.create
        {
          Interp.default_config with
          Interp.trace = false;
          cost = Some Cost.default;
        }
        prog
    in
    workload t;
    Interp.cost_ns t
  in
  (* one row per subject: the optimizer runs over the given (already
     repaired or manual) program; cost is the perfmodel's simulated ns
     for the subject's own workload, before and after *)
  let row name prog workload =
    let o = O.run prog in
    let cost0 = sim_cost prog workload in
    let cost1 = sim_cost o.O.o_prog workload in
    (name, o, cost0, cost1)
  in
  let corpus_rows =
    List.map
      (fun (c : Case.t) ->
        let r =
          Driver.repair ~name:c.Case.id ~workload:c.Case.workload
            (Lazy.force c.Case.program)
        in
        row (c.Case.id ^ "/repaired") r.Driver.repaired c.Case.workload)
      (Bugs.all @ Pclht.cases @ Memcached_mini.cases)
  in
  let app_prog kind variant =
    match App.program kind variant with
    | Ok p -> p
    | Error e ->
        Fmt.failwith "table_opt (%s/%s): %s" (App.kind_to_string kind)
          (App.variant_to_string variant) e
  in
  let app_rows =
    [
      row "redis/manual" (app_prog App.Redis App.Manual)
        Redis_bench.repair_workload;
      row "redis/repaired" (app_prog App.Redis App.Repaired)
        Redis_bench.repair_workload;
      row "pclht/manual" (app_prog App.Pclht App.Manual) Pclht.workload;
      row "pclht/repaired" (app_prog App.Pclht App.Repaired) Pclht.workload;
    ]
  in
  let rows = corpus_rows @ app_rows in
  Fmt.pr "  %-18s %13s %13s %8s %7s %10s %10s %7s@." "subject" "flush/fence"
    "-> after" "removed" "static" "cost-ns" "-> after" "delta";
  List.iter
    (fun (name, (o : O.outcome), cost0, cost1) ->
      Fmt.pr "  %-18s %6d/%-6d %6d/%-6d %8d %7s %10.0f %10.0f %6.1f%%@." name
        o.O.o_before.Timed.flushes o.O.o_before.Timed.fences
        o.O.o_after.Timed.flushes o.O.o_after.Timed.fences
        (List.length o.O.o_removals)
        (if o.O.o_report_equal then "equal" else "DRIFT")
        cost0 cost1
        (100. *. (cost1 -. cost0) /. Float.max 1. cost0))
    rows;
  (* dynamic do-no-harm on the flagship subject: the repaired and
     optimized P-CLHT must give the same verdict at every crash point,
     at both worker widths *)
  let pclht_rep = app_prog App.Pclht App.Repaired in
  let pclht_opt = (O.run pclht_rep).O.o_prog in
  let verdicts =
    List.map
      (fun jobs ->
        ( jobs,
          O.crash_verdicts_identical ~jobs ~setup:clht_sweep_setup
            ~checker:"clht_recover_check" ~checker_args:[] pclht_rep pclht_opt
        ))
      [ 1; 2 ]
  in
  List.iter
    (fun (jobs, ok) ->
      Fmt.pr "  pclht crash-sweep verdicts identical at jobs %d: %s@." jobs
        (if ok then "yes" else "NO"))
    verdicts;
  let total_removed =
    List.fold_left
      (fun acc (_, o, _, _) -> acc + List.length o.O.o_removals)
      0 rows
  in
  Fmt.pr "  total removed across %d subjects: %d@." (List.length rows)
    total_removed;
  `Assoc
    [
      ( "rows",
        `List
          (List.map
             (fun (name, (o : O.outcome), cost0, cost1) ->
               `Assoc
                 [
                   ("subject", `String name);
                   ("flushes_before", `Int o.O.o_before.Timed.flushes);
                   ("fences_before", `Int o.O.o_before.Timed.fences);
                   ("flushes_after", `Int o.O.o_after.Timed.flushes);
                   ("fences_after", `Int o.O.o_after.Timed.fences);
                   ("removed", `Int (List.length o.O.o_removals));
                   ("report_equal", `Bool o.O.o_report_equal);
                   ("reverted", `Bool o.O.o_reverted);
                   ("cost_ns_before", `Float cost0);
                   ("cost_ns_after", `Float cost1);
                 ])
             rows) );
      ( "pclht_crash_verdicts_identical",
        `Assoc
          (List.map (fun (j, ok) -> (Fmt.str "jobs%d" j, `Bool ok)) verdicts)
      );
      ("total_removed", `Int total_removed);
      ( "all_report_equal",
        `Bool (List.for_all (fun (_, o, _, _) -> o.O.o_report_equal) rows) );
    ]

(* ------------------------------------------------------------------ *)
(* scenario simulator: fleet throughput per fault mode, plus the
   determinism cross-check (a fleet's digest must be byte-identical at
   the benchmark's jobs width and serially) *)

module Sim = Hippo_sim.Harness

let table_sim () =
  section
    (Fmt.str "sim — fault-injecting scenario fleets (seed %d, jobs %d)"
       !seed !jobs);
  let scenarios = 8 and ops = 60 in
  let base mode kind variant =
    {
      Sim.default_config with
      Sim.kind;
      variant;
      mode;
      seed = !seed;
      scenarios;
      ops;
      keyspace = 24;
      nbuckets = 16;
      jobs = !jobs;
    }
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let row (label, cfg) =
    match timed (fun () -> Sim.run cfg) with
    | Error e, _ -> Fmt.failwith "table_sim (%s): %s" label e
    | Ok r, wall ->
        let serial =
          match Sim.run { cfg with Sim.jobs = 1 } with
          | Ok s -> s
          | Error e -> Fmt.failwith "table_sim (%s, serial): %s" label e
        in
        let det = String.equal r.Sim.digest serial.Sim.digest in
        let scen_s = float_of_int scenarios /. wall in
        Fmt.pr
          "  %-22s %6.1f scen/s   crashes %3d   violations %3d   \
           digest %s   jobs-identical: %s@."
          label scen_s r.Sim.crashes
          (List.length r.Sim.violations)
          (String.sub r.Sim.digest 0 8)
          (if det then "yes" else "NO");
        (label, scen_s, r, det)
  in
  let rows =
    List.map row
      [
        ("redis/manual quick", base Sim.Quick App.Redis App.Manual);
        ("redis/manual standard", base Sim.Standard App.Redis App.Manual);
        ("redis/manual chaos", base Sim.Chaos App.Redis App.Manual);
        ("pclht/manual chaos", base Sim.Chaos App.Pclht App.Manual);
      ]
  in
  let violations_of label =
    let _, _, r, _ = List.find (fun (l, _, _, _) -> l = label) rows in
    List.length r.Sim.violations
  in
  let deterministic = List.for_all (fun (_, _, _, d) -> d) rows in
  let manual_clean =
    violations_of "redis/manual quick" = 0
    && violations_of "redis/manual standard" = 0
    && violations_of "redis/manual chaos" = 0
  in
  let detects = violations_of "pclht/manual chaos" > 0 in
  Fmt.pr "  every fleet digest identical at jobs %d and 1: %s@." !jobs
    (if deterministic then "yes" else "NO");
  Fmt.pr "  hand-hardened redis clean under every mode: %s@."
    (if manual_clean then "yes" else "NO");
  Fmt.pr "  chaos detects P-CLHT's injected bugs: %s@."
    (if detects then "yes" else "NO");
  `Assoc
    [
      ("seed", `Int !seed);
      ("scenarios", `Int scenarios);
      ("ops", `Int ops);
      ("jobs", `Int !jobs);
      ( "rows",
        `List
          (List.map
             (fun (label, scen_s, r, det) ->
               `Assoc
                 [
                   ("fleet", `String label);
                   ("scenarios_per_s", `Float scen_s);
                   ("crashes", `Int r.Sim.crashes);
                   ("recoveries", `Int r.Sim.recoveries);
                   ("torn", `Int r.Sim.torn);
                   ("violations", `Int (List.length r.Sim.violations));
                   ("digest", `String r.Sim.digest);
                   ("jobs_identical", `Bool det);
                 ])
             rows) );
      ("deterministic", `Bool deterministic);
      ("manual_redis_clean", `Bool manual_clean);
      ("chaos_detects_pclht_bugs", `Bool detects);
    ]

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable results (hand-rolled serializer; no
   JSON library in the toolchain). *)

type json =
  [ `Assoc of (string * json) list
  | `List of json list
  | `String of string
  | `Int of int
  | `Float of float
  | `Bool of bool ]

let rec json_to_buf buf (j : json) =
  match j with
  | `String s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | `Int n -> Buffer.add_string buf (string_of_int n)
  | `Float f -> Buffer.add_string buf (Fmt.str "%.6f" f)
  | `Bool b -> Buffer.add_string buf (string_of_bool b)
  | `List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buf buf x)
        l;
      Buffer.add_char buf ']'
  | `Assoc kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          json_to_buf buf (`String k);
          Buffer.add_char buf ':';
          json_to_buf buf v)
        kvs;
      Buffer.add_char buf '}'

(* results accumulated by experiments that support --json *)
let json_results : (string * json) list ref = ref []

let add_json key (j : json) = json_results := (key, j) :: !json_results

(* Exact cross-checks the json-aware tables compute. A false anywhere
   under one of these keys (pclht_crash_verdicts_identical holds one
   boolean per jobs width) means drift, and the run exits non-zero;
   wall-clock thresholds stay informational. *)
let exact_checks =
  [
    "verdicts_identical";
    "agrees_all";
    "deterministic";
    "manual_redis_clean";
    "chaos_detects_pclht_bugs";
    "pclht_crash_verdicts_identical";
  ]

let rec has_false (j : json) =
  match j with
  | `Bool b -> not b
  | `Assoc kvs -> List.exists (fun (_, v) -> has_false v) kvs
  | `List l -> List.exists has_false l
  | `String _ | `Int _ | `Float _ -> false

let rec failed_checks (j : json) =
  match j with
  | `Assoc kvs ->
      List.concat_map
        (fun (k, v) ->
          if List.mem k exact_checks && has_false v then [ k ]
          else failed_checks v)
        kvs
  | `List l -> List.concat_map failed_checks l
  | `String _ | `Int _ | `Float _ | `Bool _ -> []

let write_json path =
  let buf = Buffer.create 4096 in
  json_to_buf buf (`Assoc (List.rev !json_results));
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "@.json results written to %s@." path

let () =
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let full = List.mem "--full" args in
  (* consume "--jobs N" and "--json FILE"; everything else left in place *)
  let json_file = ref None in
  let rec strip_opts = function
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> jobs := k
        | _ -> Fmt.epr "--jobs expects a positive integer, got %S@." n);
        strip_opts rest
    | "--json" :: path :: rest ->
        json_file := Some path;
        strip_opts rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k -> seed := k
        | None -> Fmt.epr "--seed expects an integer, got %S@." n);
        strip_opts rest
    | "--serve-records" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> serve_records := k
        | _ -> Fmt.epr "--serve-records expects a positive integer, got %S@." n);
        strip_opts rest
    | "--serve-ops" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> serve_ops := k
        | _ -> Fmt.epr "--serve-ops expects a positive integer, got %S@." n);
        strip_opts rest
    | a :: rest -> a :: strip_opts rest
    | [] -> []
  in
  let cmds = List.filter (fun a -> a <> "--full") (strip_opts args) in
  let run_all () =
    fig1 ();
    table_effectiveness ();
    table_static ();
    table_heuristics ();
    fig3 ();
    let v = fig4 ~full () in
    fix_stats ~variants:v ();
    fig5 ();
    code_size ~variants:v ();
    ablate_reuse ();
    ablate_reduction ();
    ablate_heuristic ();
    table_main ();
    table_par ();
    add_json "table_crash" (table_crash ());
    add_json "table_fuzz" (table_fuzz ());
    micro ()
  in
  (match cmds with
  | [] -> run_all ()
  | cmds ->
      List.iter
        (function
          | "fig1" -> fig1 ()
          | "table_effectiveness" -> table_effectiveness ()
          | "table_static" -> table_static ()
          | "table_heuristics" -> table_heuristics ()
          | "fig3" -> fig3 ()
          | "fig4" -> ignore (fig4 ~full ())
          | "fix_stats" -> fix_stats ()
          | "fig5" -> fig5 ()
          | "code_size" -> code_size ()
          | "ablate_reuse" -> ablate_reuse ()
          | "ablate_reduction" -> ablate_reduction ()
          | "ablate_heuristic" -> ablate_heuristic ()
          | "table_main" -> table_main ()
          | "table_par" -> table_par ()
          | "table_crash" -> add_json "table_crash" (table_crash ())
          | "table_fuzz" -> add_json "table_fuzz" (table_fuzz ())
          | "table_serve" -> add_json "table_serve" (table_serve ())
          | "table_opt" -> add_json "table_opt" (table_opt ())
          | "table_sim" -> add_json "table_sim" (table_sim ())
          | "micro" -> micro ()
          | other -> Fmt.epr "unknown experiment %S@." other)
        cmds);
  (match !json_file with
  | Some path ->
      add_json "jobs" (`Int !jobs);
      write_json path
  | None -> ());
  match failed_checks (`Assoc !json_results) with
  | [] -> ()
  | failed ->
      Fmt.epr "exact cross-checks failed: %a@."
        Fmt.(list ~sep:comma string)
        (List.sort_uniq compare failed);
      exit 1
