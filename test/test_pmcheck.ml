(* Tests for the bug-finder substrate: the simulated memory, the
   persistency state machine, the interpreter, trace serialization and
   crash simulation. *)

open Hippo_pmir
open Hippo_pmcheck

let v = Value.reg
let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_regions () =
  Alcotest.(check bool) "pm" true (Layout.is_pm Layout.pm_base);
  Alcotest.(check bool) "vol not pm" false (Layout.is_pm Layout.vol_base);
  Alcotest.(check bool) "vol ptr" true (Layout.is_volatile_ptr Layout.stack_base);
  Alcotest.(check bool) "global ptr" true (Layout.is_volatile_ptr Layout.global_base);
  Alcotest.(check bool) "small int is no ptr" false (Layout.is_volatile_ptr 42);
  Alcotest.(check bool) "pm is not volatile" false
    (Layout.is_volatile_ptr (Layout.pm_base + 100));
  Alcotest.(check int) "line base" (Layout.pm_base)
    (Layout.line_base (Layout.pm_base + 63));
  Alcotest.(check int) "line of addr" (Layout.pm_base / 64 + 1)
    (Layout.line_of_addr (Layout.pm_base + 64))

(* ------------------------------------------------------------------ *)
(* Mem *)

let mk_mem () = Mem.create []

let test_mem_load_store_sizes () =
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  List.iter
    (fun (size, value) ->
      Mem.store m ~addr:a ~size value;
      Alcotest.(check int)
        (Printf.sprintf "size %d" size)
        value
        (Mem.load m ~addr:a ~size))
    [ (1, 0xAB); (2, 0xBEEF); (4, 0xDEADBEE); (8, 0x1122334455667788) ]

let test_mem_little_endian () =
  let m = mk_mem () in
  let a = Mem.alloc_vol m 16 in
  Mem.store m ~addr:a ~size:8 0x0807060504030201;
  Alcotest.(check int) "byte 0" 0x01 (Mem.load m ~addr:a ~size:1);
  Alcotest.(check int) "byte 7" 0x08 (Mem.load m ~addr:(a + 7) ~size:1)

let test_mem_regions_disjoint () =
  let m = mk_mem () in
  let pm = Mem.alloc_pm m 8 and vol = Mem.alloc_vol m 8 in
  Mem.store m ~addr:pm ~size:8 1;
  Mem.store m ~addr:vol ~size:8 2;
  Alcotest.(check int) "pm" 1 (Mem.load m ~addr:pm ~size:8);
  Alcotest.(check int) "vol" 2 (Mem.load m ~addr:vol ~size:8)

let test_mem_traps () =
  let m = mk_mem () in
  let trap f = match f () with
    | exception Mem.Trap _ -> ()
    | _ -> Alcotest.fail "expected trap"
  in
  trap (fun () -> Mem.load m ~addr:0 ~size:8);
  trap (fun () -> Mem.load m ~addr:0x9999_9999 ~size:8);
  trap (fun () -> Mem.load m ~addr:(Layout.pm_base - 1) ~size:8);
  trap (fun () -> Mem.store m ~addr:(Layout.pm_base + (1 lsl 24) - 4) ~size:8 0)

let test_mem_pm_alloc_alignment () =
  let m = mk_mem () in
  let a = Mem.alloc_pm m 10 and b = Mem.alloc_pm m 10 in
  Alcotest.(check int) "line aligned" 0 (a mod 64);
  Alcotest.(check int) "next line" 64 (b - a)

let test_mem_globals () =
  let m = Mem.create [ ("g1", 8); ("g2", 100) ] in
  let a1 = Mem.global_addr m "g1" and a2 = Mem.global_addr m "g2" in
  Alcotest.(check bool) "distinct" true (a1 <> a2);
  Alcotest.(check bool) "in globals region" true
    (Layout.region_of_addr a1 = Layout.Globals);
  (match Mem.global_addr m "nope" with
  | exception Mem.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap")

let test_mem_persist_and_crash_image () =
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 7;
  let img0 = Mem.crash_image m in
  Alcotest.(check int) "not persisted yet" 0
    (Int64.to_int (Bytes.get_int64_le img0 (a - Layout.pm_base)));
  Mem.persist_range m ~addr:a ~size:8;
  let img1 = Mem.crash_image m in
  Alcotest.(check int) "persisted" 7
    (Int64.to_int (Bytes.get_int64_le img1 (a - Layout.pm_base)))

let test_mem_string_roundtrip () =
  let m = mk_mem () in
  let a = Mem.alloc_vol m 32 in
  Mem.write_string m ~addr:a "hello pm";
  Alcotest.(check string) "roundtrip" "hello pm"
    (Mem.read_string m ~addr:a ~len:8)

(* ------------------------------------------------------------------ *)
(* Pstate *)

let dummy_iid () = Iid.fresh ~func:"t"
let dloc = Loc.make ~file:"t.c" ~line:1

let crash_at_exit : Report.crash_info =
  { crash_iid = None; crash_loc = dloc; crash_stack = [] }

let test_pstate_store_flush_fence () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 42;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  Alcotest.(check int) "dirty" 1 (Pstate.unpersisted_count ps);
  let moved = Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:a in
  Alcotest.(check int) "flushed one" 1 moved;
  Alcotest.(check int) "pending" 1 (Pstate.pending_count ps);
  let drained = Pstate.fence ps m ~seq:2 in
  Alcotest.(check int) "one line drained" 1 drained;
  Alcotest.(check int) "all durable" 0 (Pstate.unpersisted_count ps);
  Alcotest.(check int) "durable content" 42
    (Int64.to_int (Bytes.get_int64_le (Mem.crash_image m) (a - Layout.pm_base)))

let test_pstate_clflush_immediate () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 9;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clflush ~addr:a);
  Alcotest.(check int) "durable without fence" 0 (Pstate.unpersisted_count ps);
  Alcotest.(check int) "content" 9
    (Int64.to_int (Bytes.get_int64_le (Mem.crash_image m) (a - Layout.pm_base)))

let test_pstate_clflush_drains_pending_writeback () =
  (* clwb queues a write-back of value 1; the line is re-stored with 2 and
     clflush'd. Write-backs to one line complete in order, so the fence
     must not let the stale clwb snapshot overwrite the clflush'd bytes. *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 1;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:a);
  Mem.store m ~addr:a ~size:8 2;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:1);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clflush ~addr:a);
  Alcotest.(check int) "nothing in flight" 0 (Pstate.pending_count ps);
  Alcotest.(check int) "all durable" 0 (Pstate.unpersisted_count ps);
  ignore (Pstate.fence ps m ~seq:2);
  Alcotest.(check int) "newest value survives the fence" 2
    (Int64.to_int (Bytes.get_int64_le (Mem.crash_image m) (a - Layout.pm_base)))

let test_pstate_nt_store () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 5;
  Pstate.store_nt ps m ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0;
  Alcotest.(check int) "pending, no flush needed" 1 (Pstate.pending_count ps);
  ignore (Pstate.fence ps m ~seq:1);
  Alcotest.(check int) "durable" 0 (Pstate.unpersisted_count ps)

let test_pstate_flush_snapshot_semantics () =
  (* a store issued after the flush but before the fence is NOT covered *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 1;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:a);
  (* overwrite the same range post-flush *)
  Mem.store m ~addr:a ~size:8 2;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:1);
  ignore (Pstate.fence ps m ~seq:2);
  Alcotest.(check int) "crash sees the flushed snapshot" 1
    (Int64.to_int (Bytes.get_int64_le (Mem.crash_image m) (a - Layout.pm_base)));
  Alcotest.(check int) "newer store still tracked" 1 (Pstate.unpersisted_count ps)

let test_pstate_supersede () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:1);
  Alcotest.(check int) "newest only" 1 (Pstate.unpersisted_count ps)

let test_pstate_classification () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 256 in
  (* store 1: never flushed, fence follows -> missing-flush *)
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:(Loc.make ~file:"t.c" ~line:1) ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.fence ps m ~seq:1);
  (* store 2: flushed, never fenced -> missing-fence *)
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:(Loc.make ~file:"t.c" ~line:2) ~stack:[] ~addr:(a + 64) ~size:8 ~seq:2);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:(a + 64));
  (* store 3: no flush, no subsequent fence -> missing-flush&fence *)
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:(Loc.make ~file:"t.c" ~line:3) ~stack:[] ~addr:(a + 128) ~size:8 ~seq:3);
  let bugs = Pstate.unpersisted_bugs ps ~crash:crash_at_exit in
  let kinds = List.map (fun (b : Report.bug) -> b.Report.kind) bugs in
  Alcotest.(check (list string)) "classified in line order"
    [ "missing-flush"; "missing-fence"; "missing-flush&fence" ]
    (List.map Report.kind_to_string kinds);
  (* the missing-fence bug records its ordering flush *)
  let mf = List.nth bugs 1 in
  Alcotest.(check bool) "ordering flush recorded" true
    (mf.Report.ordering_flush <> None)

let test_pstate_flush_cross_line_record () =
  (* an 8-byte store straddling two lines is flushed from either line *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let base = Mem.alloc_pm m 128 in
  let a = base + 60 in
  Mem.store m ~addr:a ~size:8 77;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:(base + 64));
  Alcotest.(check int) "record pending via second line" 1 (Pstate.pending_count ps)

(* ------------------------------------------------------------------ *)
(* Interp *)

let build_prog emit =
  let b = Builder.create () in
  emit b;
  let p = Builder.program b in
  Validate.check_exn p;
  p

let test_interp_arith_and_flow () =
  (* iterative factorial through a loop *)
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "fact" [ "n" ] ~body:(fun fb ->
              ignore (Builder.set fb "acc" (i 1));
              Builder.while_ fb
                ~cond:(fun () -> Builder.gt fb (v "n") (i 1))
                ~body:(fun () ->
                  ignore (Builder.set fb "acc" (Builder.mul fb (v "acc") (v "n")));
                  ignore (Builder.set fb "n" (Builder.sub fb (v "n") (i 1))));
              Builder.ret fb (v "acc"))
        in
        ())
  in
  let t = Interp.create Interp.default_config p in
  Alcotest.(check int) "5! = 120" 120 (Interp.call t "fact" [ 5 ]);
  Alcotest.(check int) "0! = 1" 1 (Interp.call t "fact" [ 0 ])

let test_interp_recursion () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "fib" [ "n" ] ~body:(fun fb ->
              Builder.if_ fb
                (Builder.lt fb (v "n") (i 2))
                ~then_:(fun () -> Builder.ret fb (v "n"))
                ();
              let a = Builder.call fb "fib" [ Builder.sub fb (v "n") (i 1) ] in
              let c = Builder.call fb "fib" [ Builder.sub fb (v "n") (i 2) ] in
              Builder.ret fb (Builder.add fb a c))
        in
        ())
  in
  let t = Interp.create Interp.default_config p in
  Alcotest.(check int) "fib 10" 55 (Interp.call t "fib" [ 10 ])

let test_interp_division_traps () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "d" [ "x" ] ~body:(fun fb ->
              Builder.ret fb (Builder.div fb (i 10) (v "x")))
        in
        ())
  in
  let t = Interp.create Interp.default_config p in
  Alcotest.(check int) "10/2" 5 (Interp.call t "d" [ 2 ]);
  match Interp.call t "d" [ 0 ] with
  | exception Mem.Trap _ -> ()
  | _ -> Alcotest.fail "expected division trap"

let test_interp_intrinsics_and_output () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              let base = Builder.call fb "pm_base" [] in
              Builder.call_void fb "emit" [ Builder.eq fb pm base ];
              let m1 = Builder.call fb "malloc" [ i 8 ] in
              Builder.call_void fb "free" [ m1 ];
              Builder.call_void fb "emit" [ i 7 ];
              Builder.ret_void fb)
        in
        ())
  in
  let t = Interp.create Interp.default_config p in
  ignore (Interp.call t "main" []);
  Alcotest.(check (list int)) "emitted" [ 1; 7 ] (Interp.output t)

let test_interp_abort_and_fuel () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "boom" [] ~body:(fun fb ->
              Builder.call_void fb "abort" [];
              Builder.ret_void fb)
        in
        let _ =
          Builder.func b "spin" [] ~body:(fun fb ->
              Builder.while_ fb ~cond:(fun () -> i 1) ~body:(fun () -> ());
              Builder.ret_void fb)
        in
        ())
  in
  let t = Interp.create Interp.default_config p in
  (match Interp.call t "boom" [] with
  | exception Interp.Aborted -> ()
  | _ -> Alcotest.fail "expected abort");
  let t2 = Interp.create { Interp.default_config with fuel = 1000 } p in
  match Interp.call t2 "spin" [] with
  | exception Interp.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

let test_interp_alloca_stack_release () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "leaf" [] ~body:(fun fb ->
              let a = Builder.alloca fb 1024 in
              Builder.store fb ~addr:a (i 1);
              Builder.ret fb a)
        in
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              Builder.for_ fb "k" ~from:(i 0) ~below:(i 100) ~body:(fun _ ->
                  ignore (Builder.call fb "leaf" []));
              Builder.ret_void fb)
        in
        ())
  in
  let t = Interp.create { Interp.default_config with stack_size = 8192 } p in
  (* without per-frame stack release this would overflow *)
  ignore (Interp.call t "main" [])

let buggy_store_prog () =
  build_prog (fun b ->
      let _ =
        Builder.func b "main" [] ~body:(fun fb ->
            let pm = Builder.call fb "pm_alloc" [ i 64 ] in
            Builder.store fb ~addr:pm (i 123);
            Builder.ret_void fb)
      in
      ())

let test_interp_detects_bug_at_exit () =
  let t, _ = Interp.run (buggy_store_prog ()) ~entry:"main" ~args:[] in
  let bugs = Interp.bugs t in
  Alcotest.(check int) "one bug" 1 (List.length bugs);
  Alcotest.(check string) "flush&fence" "missing-flush&fence"
    (Report.kind_to_string (List.hd bugs).Report.kind)

let test_interp_stop_at_crash () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              Builder.store fb ~addr:pm (i 1);
              Builder.crash fb;
              Builder.flush fb pm;
              Builder.fence fb ();
              Builder.crash fb;
              Builder.call_void fb "emit" [ i 99 ];
              Builder.ret_void fb)
        in
        ())
  in
  let cfg = { Interp.default_config with stop_at_crash = Some 1 } in
  let t = Interp.create cfg p in
  (match Interp.call t "main" [] with
  | exception Interp.Stopped_at_crash -> ()
  | _ -> Alcotest.fail "expected stop");
  Alcotest.(check (list int)) "stopped before emit" [] (Interp.output t);
  Alcotest.(check int) "bug recorded at crash 1" 1 (List.length (Interp.bugs t))

let test_interp_cost_accounting () =
  let run cost prog =
    let cfg = { Interp.default_config with cost = Some cost; trace = false } in
    let t = Interp.create cfg prog in
    ignore (Interp.call t "main" []);
    Interp.cost_ns t
  in
  let flush_free = buggy_store_prog () in
  let with_persist =
    build_prog (fun b ->
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              Builder.store fb ~addr:pm (i 123);
              Builder.flush fb pm;
              Builder.fence fb ();
              Builder.ret_void fb)
        in
        ())
  in
  let c0 = run Cost.default flush_free and c1 = run Cost.default with_persist in
  Alcotest.(check bool) "persistence costs more" true (c1 > c0);
  let c2 = run Cost.fence_heavy with_persist in
  Alcotest.(check bool) "fence-heavy model costs more" true (c2 > c1)

let test_interp_global_values () =
  let p =
    build_prog (fun b ->
        Builder.global b "slot" 8;
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              Builder.store fb ~addr:(Value.global "slot") (i 31);
              let x = Builder.load fb (Value.global "slot") in
              Builder.call_void fb "emit" [ x ];
              Builder.ret_void fb)
        in
        ())
  in
  let t = Interp.create Interp.default_config p in
  ignore (Interp.call t "main" []);
  Alcotest.(check (list int)) "global round trip" [ 31 ] (Interp.output t)

(* What a host call leaves behind: its result or the trap message. *)
let call_result t name args =
  match Interp.call t name args with
  | r -> Printf.sprintf "ret:%d" r
  | exception Mem.Trap m -> Printf.sprintf "trap:%s" m
  | exception Interp.Aborted -> "aborted"
  | exception Interp.Out_of_fuel -> "out_of_fuel"

let call_fresh prog name args =
  call_result (Interp.create Interp.default_config prog) name args

let test_interp_trap_messages () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "d" [ "x" ] ~body:(fun fb ->
               Builder.ret fb (Builder.div fb (i 10) (v "x"))));
        ignore
          (Builder.func b "r" [ "x" ] ~body:(fun fb ->
               Builder.ret fb (Builder.rem fb (i 10) (v "x"))));
        ignore
          (Builder.func b "sh" [ "x"; "k" ] ~body:(fun fb ->
               Builder.ret fb (Builder.shl fb (v "x") (v "k")))))
  in
  Alcotest.(check string) "div msg" "trap:division by zero"
    (call_fresh p "d" [ 0 ]);
  Alcotest.(check string) "rem msg" "trap:remainder by zero"
    (call_fresh p "r" [ 0 ]);
  (* shift amounts mask to [land 62] *)
  Alcotest.(check string) "shift mask"
    (Printf.sprintf "ret:%d" (1 lsl (65 land 62)))
    (call_fresh p "sh" [ 1; 65 ]);
  Alcotest.(check string) "shift 62"
    (Printf.sprintf "ret:%d" (3 lsl 62))
    (call_fresh p "sh" [ 3; 62 ])

let test_interp_arity_and_undefined () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "f" [ "x" ] ~body:(fun fb -> Builder.ret fb (v "x"))))
  in
  Alcotest.(check string) "arity msg"
    "trap:@f called with 2 arguments (expects 1)"
    (call_fresh p "f" [ 1; 2 ]);
  Alcotest.(check string) "undefined msg"
    "trap:call to undefined function @nope" (call_fresh p "nope" [])

let test_interp_abort_and_wild_access () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "boom" [] ~body:(fun fb ->
               Builder.call_void fb "emit" [ i 5 ];
               Builder.call_void fb "abort" [];
               Builder.call_void fb "emit" [ i 6 ];
               Builder.ret fb (i 0)));
        ignore
          (Builder.func b "wild" [] ~body:(fun fb ->
               Builder.ret fb (Builder.load fb (i 0x9999_9999) ~size:8)));
        ignore
          (Builder.func b "null" [] ~body:(fun fb ->
               Builder.store fb ~addr:(i 8) ~size:8 (i 1);
               Builder.ret fb (i 0))))
  in
  let t = Interp.create Interp.default_config p in
  Alcotest.(check string) "abort" "aborted" (call_result t "boom" []);
  Alcotest.(check (list int)) "output up to the abort" [ 5 ] (Interp.output t);
  Alcotest.(check string) "wild" "trap:wild access at 0x99999999"
    (call_fresh p "wild" []);
  Alcotest.(check string) "null" "trap:null-page access at 0x8"
    (call_fresh p "null" [])

(* A machine accumulates across host calls: output, simulated cost, crash
   points, bugs, and trace seq numbers all continue where the previous
   call stopped. *)
let test_interp_accumulation_across_calls () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "main" [] ~body:(fun fb ->
               let pm = Builder.call fb "pm_alloc" [ i 64 ] in
               Builder.store fb ~addr:pm (i 1);
               Builder.flush fb pm;
               Builder.fence fb ();
               Builder.call_void fb "emit" [ i 7 ];
               Builder.store fb ~addr:(Builder.gep fb pm (i 8)) (i 2);
               Builder.crash fb;
               Builder.ret_void fb)))
  in
  let machine () =
    Interp.create { Interp.default_config with cost = Some Cost.default } p
  in
  let once = machine () in
  ignore (Interp.call once "main" []);
  let twice = machine () in
  ignore (Interp.call twice "main" []);
  ignore (Interp.call twice "main" []);
  Alcotest.(check (list int)) "output" [ 7; 7 ] (Interp.output twice);
  Alcotest.(check (float 1e-6)) "cost"
    (2. *. Interp.cost_ns once)
    (Interp.cost_ns twice);
  Alcotest.(check int) "crash points" 2 (Interp.crash_points_hit twice);
  (* the first call's unflushed store is still pending at the second
     crash point *)
  Alcotest.(check int) "raw bugs" 3 (List.length (Interp.raw_bugs twice));
  let seqs = List.map Trace.seq (Interp.trace twice) in
  Alcotest.(check int) "trace doubles"
    (2 * List.length (Interp.trace once))
    (List.length seqs);
  Alcotest.(check bool) "seqs increase across calls" true
    (List.sort_uniq compare seqs = seqs)

(* ------------------------------------------------------------------ *)
(* Trace serialization *)

let trace_of_buggy () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "w" [ "p" ] ~body:(fun fb ->
              Builder.store fb ~addr:(v "p") (i 5);
              Builder.flush fb (v "p");
              Builder.fence fb ();
              Builder.ret_void fb)
        in
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              Builder.call_void fb "w" [ pm ];
              Builder.crash fb;
              Builder.ret_void fb)
        in
        ())
  in
  let t, _ = Interp.run p ~entry:"main" ~args:[] in
  Interp.trace t

let test_trace_roundtrip () =
  let tr = trace_of_buggy () in
  Alcotest.(check bool) "nonempty" true (List.length tr >= 5);
  let tr' = Trace.of_string (Trace.to_string tr) in
  Alcotest.(check int) "same length" (List.length tr) (List.length tr');
  Alcotest.(check string) "identical after reserialize"
    (Trace.to_string tr) (Trace.to_string tr')

let test_trace_stacks () =
  let tr = trace_of_buggy () in
  let store_ev =
    List.find (function Trace.Store _ -> true | _ -> false) tr
  in
  let stack = Trace.stack_of store_ev in
  Alcotest.(check int) "two frames" 2 (List.length stack);
  Alcotest.(check string) "inner frame" "w" (List.hd stack).Trace.func;
  Alcotest.(check bool) "inner has call site" true
    ((List.hd stack).Trace.callsite <> None);
  Alcotest.(check bool) "outer is host entry" true
    ((List.nth stack 1).Trace.callsite = None)

let test_sitestats_roundtrip () =
  let stats = Sitestats.create () in
  let s1 = Iid.fresh ~func:"f" in
  Sitestats.observe stats ~site:s1 ~arg:(-1) Trace.Pm_ptr;
  Sitestats.observe stats ~site:s1 ~arg:(-1) Trace.Vol_ptr;
  Sitestats.observe stats ~site:s1 ~arg:0 Trace.Pm_ptr;
  Sitestats.observe stats ~site:s1 ~arg:1 Trace.Not_ptr;
  let lines = Sitestats.to_lines stats in
  Alcotest.(check int) "not-ptr ignored" 2 (List.length lines);
  let stats' = Sitestats.of_lines lines in
  (match Sitestats.find stats' ~site:s1 ~arg:(-1) with
  | Some o ->
      Alcotest.(check int) "pm obs" 1 o.Sitestats.pm;
      Alcotest.(check int) "vol obs" 1 o.Sitestats.vol
  | None -> Alcotest.fail "missing stat");
  Alcotest.(check bool) "arg 1 absent" true
    (Sitestats.find stats' ~site:s1 ~arg:1 = None)

let test_pmtest_format_roundtrip () =
  let t, _ = Interp.run (buggy_store_prog ()) ~entry:"main" ~args:[] in
  let events = Interp.trace t and bugs = Interp.raw_bugs t in
  let text = Pmtest_format.to_string ~events ~bugs in
  let events', bugs' = Pmtest_format.of_string text in
  Alcotest.(check int) "event count" (List.length events) (List.length events');
  Alcotest.(check int) "bug count" (List.length bugs) (List.length bugs');
  Alcotest.(check string) "stable reserialization" text
    (Pmtest_format.to_string ~events:events' ~bugs:bugs');
  (* parsed reports must re-key onto the same instructions *)
  List.iter2
    (fun (a : Report.bug) (b : Report.bug) ->
      Alcotest.(check bool) "same store identity" true
        (Iid.equal a.Report.store.iid b.Report.store.iid))
    bugs bugs'

let test_report_line_roundtrip () =
  let t, _ = Interp.run (buggy_store_prog ()) ~entry:"main" ~args:[] in
  List.iter
    (fun b ->
      let b' = Report.of_line (Report.to_line b) in
      Alcotest.(check string) "bug line roundtrip" (Report.to_line b)
        (Report.to_line b'))
    (Interp.raw_bugs t)

(* ------------------------------------------------------------------ *)
(* Crashsim *)

let counter_prog ~bug =
  (* a persistent counter with a recovery invariant: value == shadow *)
  build_prog (fun b ->
      let _ =
        Builder.func b "init" [] ~body:(fun fb ->
            let c = Builder.call fb "pm_alloc" [ i 128 ] in
            Builder.store fb ~addr:c (i 0);
            Builder.store fb ~addr:(Builder.gep fb c (i 64)) (i 0);
            Builder.flush fb c;
            Builder.flush fb (Builder.gep fb c (i 64));
            Builder.fence fb ();
            Builder.ret fb c)
      in
      let _ =
        Builder.func b "bump" [] ~body:(fun fb ->
            let c = Builder.call fb "pm_base" [] in
            let s = Builder.gep fb c (i 64) in
            let x = Builder.add fb (Builder.load fb c) (i 1) in
            Builder.store fb ~addr:c x;
            Builder.flush fb c;
            Builder.fence fb ();
            Builder.store fb ~addr:s x;
            (* the injected bug: the shadow copy is never flushed *)
            if not bug then Builder.flush fb s;
            Builder.fence fb ();
            Builder.crash fb;
            Builder.ret_void fb)
      in
      let _ =
        Builder.func b "check" [] ~body:(fun fb ->
            let c = Builder.call fb "pm_base" [] in
            let s = Builder.gep fb c (i 64) in
            Builder.ret fb (Builder.eq fb (Builder.load fb c) (Builder.load fb s)))
      in
      ())

let setup = [ ("init", []); ("bump", []); ("bump", []); ("bump", []) ]

let test_crashsim_correct_program_consistent () =
  let ok =
    Crashsim.crash_consistent (counter_prog ~bug:false) ~setup ~checker:"check"
      ~checker_args:[]
  in
  Alcotest.(check bool) "consistent" true ok

let test_crashsim_buggy_program_detected () =
  let verdicts =
    Crashsim.sweep (counter_prog ~bug:true) ~setup ~checker:"check"
      ~checker_args:[]
  in
  Alcotest.(check int) "three crash points" 3 (List.length verdicts);
  Alcotest.(check bool) "some pessimistic failure" true
    (List.exists (fun v -> not v.Crashsim.pessimistic_ok) verdicts);
  Alcotest.(check bool) "lucky image always recovers" true
    (List.for_all (fun v -> v.Crashsim.lucky_ok) verdicts)

let suite =
  [
    ("layout regions", `Quick, test_layout_regions);
    ("mem load/store sizes", `Quick, test_mem_load_store_sizes);
    ("mem little endian", `Quick, test_mem_little_endian);
    ("mem regions disjoint", `Quick, test_mem_regions_disjoint);
    ("mem traps", `Quick, test_mem_traps);
    ("mem pm alloc alignment", `Quick, test_mem_pm_alloc_alignment);
    ("mem globals", `Quick, test_mem_globals);
    ("mem persist + crash image", `Quick, test_mem_persist_and_crash_image);
    ("mem string roundtrip", `Quick, test_mem_string_roundtrip);
    ("pstate store/flush/fence", `Quick, test_pstate_store_flush_fence);
    ("pstate clflush immediate", `Quick, test_pstate_clflush_immediate);
    ( "pstate clflush drains pending",
      `Quick,
      test_pstate_clflush_drains_pending_writeback );
    ("pstate nt store", `Quick, test_pstate_nt_store);
    ("pstate flush snapshot", `Quick, test_pstate_flush_snapshot_semantics);
    ("pstate supersede", `Quick, test_pstate_supersede);
    ("pstate classification", `Quick, test_pstate_classification);
    ("pstate cross-line flush", `Quick, test_pstate_flush_cross_line_record);
    ("interp arith and flow", `Quick, test_interp_arith_and_flow);
    ("interp recursion", `Quick, test_interp_recursion);
    ("interp division traps", `Quick, test_interp_division_traps);
    ("interp intrinsics/output", `Quick, test_interp_intrinsics_and_output);
    ("interp abort and fuel", `Quick, test_interp_abort_and_fuel);
    ("interp alloca release", `Quick, test_interp_alloca_stack_release);
    ("interp bug at exit", `Quick, test_interp_detects_bug_at_exit);
    ("interp stop at crash", `Quick, test_interp_stop_at_crash);
    ("interp cost accounting", `Quick, test_interp_cost_accounting);
    ("interp globals", `Quick, test_interp_global_values);
    ("interp trap messages", `Quick, test_interp_trap_messages);
    ( "interp arity/undefined function",
      `Quick,
      test_interp_arity_and_undefined );
    ( "interp abort/wild/null access",
      `Quick,
      test_interp_abort_and_wild_access );
    ( "interp accumulation across calls",
      `Quick,
      test_interp_accumulation_across_calls );
    ("trace roundtrip", `Quick, test_trace_roundtrip);
    ("trace stacks", `Quick, test_trace_stacks);
    ("sitestats roundtrip", `Quick, test_sitestats_roundtrip);
    ("report line roundtrip", `Quick, test_report_line_roundtrip);
    ("pmtest format roundtrip", `Quick, test_pmtest_format_roundtrip);
    ("crashsim: correct program", `Quick, test_crashsim_correct_program_consistent);
    ("crashsim: buggy program", `Quick, test_crashsim_buggy_program_detected);
  ]
