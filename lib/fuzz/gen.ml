(* Randomized well-typed PMIR generator.

   Produces programs mixing PM stores, flushes, fences, volatile traffic,
   interprocedural persist helpers and data-dependent branches. The
   central export is [arb_bug_free]: programs where every PM store is
   covered by a store -> flush -> fence chain before any crash point or
   exit, so both the dynamic finder and the static analyzer must report
   zero bugs — the oracle for the static/dynamic differential property
   and a fixed-point input for the repair determinism battery. *)

open Hippo_pmir

let i = Value.imm

(* PM slots live on distinct cache lines so persisting one slot never
   accidentally covers another. *)
let slots = 4
let slot_off k = k * 64

type step =
  | S_persist of int * int  (* store slot <- value; flush; fence *)
  | S_persist_helper of int * int  (* the same chain behind a call *)
  | S_batch of (int * int) list  (* stores, flush each, one fence *)
  | S_vol_store of int * int
  | S_emit of int
  | S_guard of int * int  (* load slot, branch on value, emit 1 or 0 —
                             control flow without durability ops *)
  | S_store_raw of int * int  (* bare PM store: a durability bug unless a
                                 later step happens to persist the slot *)
  | S_flush of int
  | S_fence
  (* checker-mode steps (crash-sweep programs only): each slot has a
     shadow copy and the recovery invariant is slot == shadow *)
  | S_pair of int * int  (* slot and shadow both written and persisted *)
  | S_half of int * int  (* slot persisted, shadow left unflushed: the
                            durable image breaks the invariant *)
  | S_crash  (* explicit crash point *)

let bug_free_cases sv slot =
  let open QCheck.Gen in
  [
    (3, map (fun (s, x) -> S_persist (s, x)) sv);
    (3, map (fun (s, x) -> S_persist_helper (s, x)) sv);
    (2, map (fun ps -> S_batch ps) (list_size (int_range 1 3) sv));
    (2, map (fun (s, x) -> S_vol_store (s, x)) sv);
    (1, map (fun s -> S_emit s) slot);
    (1, map (fun (s, x) -> S_guard (s, x)) sv);
  ]

let gen_with cases : step list QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 20) (frequency cases)

let gen_steps : step list QCheck.Gen.t =
  let slot = QCheck.Gen.int_range 0 (slots - 1) in
  let value = QCheck.Gen.int_range 1 999 in
  let sv = QCheck.Gen.pair slot value in
  gen_with (bug_free_cases sv slot)

(* the full alphabet: bare stores, stray flushes and fences — programs
   that may or may not harbor durability bugs *)
let gen_mixed_steps : step list QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_range 0 (slots - 1) in
  let value = int_range 1 999 in
  let sv = QCheck.Gen.pair slot value in
  gen_with
    (bug_free_cases sv slot
    @ [
        (4, map (fun (s, x) -> S_store_raw (s, x)) sv);
        (2, map (fun s -> S_flush s) slot);
        (2, return S_fence);
      ])

(* Shadow slots (checker mode) live on their own cache lines above the
   primary slots. *)
let shadow_off k = (slots + k) * 64

let checker_name = "check_inv"

let program_of_steps ?(checker = false) steps : Program.t =
  let b = Builder.create () in
  let open Builder in
  (* interprocedural persist chain: store + flush + fence behind a call,
     so the static analyzer must summarize the callee to agree with the
     dynamic finder *)
  let _ =
    func b "persist_to" [ "p"; "x" ] ~body:(fun fb ->
        store fb ~addr:(Value.reg "p") (Value.reg "x");
        flush fb (Value.reg "p");
        fence fb ();
        ret_void fb)
  in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm =
          call fb "pm_alloc" [ i ((if checker then 2 * slots else slots) * 64) ]
        in
        let vol = call fb "malloc" [ i (slots * 8) ] in
        let pm_slot k = gep fb pm (i (slot_off k)) in
        let shadow_slot k = gep fb pm (i (shadow_off k)) in
        let vol_slot k = gep fb vol (i (k * 8)) in
        List.iter
          (function
            | S_persist (s, x) ->
                let p = pm_slot s in
                store fb ~addr:p (i x);
                flush fb p;
                fence fb ()
            | S_persist_helper (s, x) ->
                call_void fb "persist_to" [ pm_slot s; i x ]
            | S_batch ps ->
                (* several stores then their flushes, ordered by one
                   fence: still fully persisted *)
                List.iter (fun (s, x) -> store fb ~addr:(pm_slot s) (i x)) ps;
                List.iter (fun (s, _) -> flush fb (pm_slot s)) ps;
                fence fb ()
            | S_vol_store (s, x) -> store fb ~addr:(vol_slot s) (i x)
            | S_emit s -> call_void fb "emit" [ load fb (pm_slot s) ]
            | S_guard (s, x) ->
                let v = load fb (pm_slot s) in
                if_ fb
                  (eq fb v (i x))
                  ~then_:(fun () -> call_void fb "emit" [ i 1 ])
                  ~else_:(fun () -> call_void fb "emit" [ i 0 ])
                  ()
            | S_store_raw (s, x) -> store fb ~addr:(pm_slot s) (i x)
            | S_flush s -> flush fb (pm_slot s)
            | S_fence -> fence fb ()
            | S_pair (s, x) ->
                let p = pm_slot s and sh = shadow_slot s in
                store fb ~addr:p (i x);
                store fb ~addr:sh (i x);
                flush fb p;
                flush fb sh;
                fence fb ()
            | S_half (s, x) ->
                let p = pm_slot s and sh = shadow_slot s in
                store fb ~addr:p (i x);
                flush fb p;
                fence fb ();
                store fb ~addr:sh (i x)
            | S_crash -> crash fb)
          steps;
        ret_void fb)
  in
  (if checker then
     (* post-restart invariant: every slot equals its shadow; the lucky
        image always satisfies it after S_pair/S_half (both write the
        pair), the durable image loses S_half's shadow *)
     let _ =
       func b checker_name [] ~body:(fun fb ->
           let base = call fb "pm_base" [] in
           let acc = ref (i 1) in
           for k = 0 to slots - 1 do
             let a = load fb (gep fb base (i (slot_off k))) in
             let s = load fb (gep fb base (i (shadow_off k))) in
             acc := band fb !acc (eq fb a s)
           done;
           ret fb !acc)
     in
     ());
  let p = Builder.program b in
  Validate.check_exn p;
  p

(** Bug-free programs: every PM store persisted before exit. *)
let arb_bug_free =
  QCheck.make
    QCheck.Gen.(map program_of_steps gen_steps)
    ~print:Printer.to_string

(** Programs over the full alphabet, buggy or not — repair-pipeline
    inputs for the determinism battery. *)
let arb_mixed =
  QCheck.make
    QCheck.Gen.(map program_of_steps gen_mixed_steps)
    ~print:Printer.to_string

(* Crash-sweep programs: slot/shadow pairs, frequent crash points, and a
   small value range so durable images repeat — exercising both the
   LOST/recovers split and the dedup/memo path of the single-pass sweep. *)
let gen_crash_steps : step list QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_range 0 (slots - 1) in
  let value = int_range 1 4 in
  let sv = pair slot value in
  list_size (int_range 1 15)
    (frequency
       [
         (3, map (fun (s, x) -> S_pair (s, x)) sv);
         (3, map (fun (s, x) -> S_half (s, x)) sv);
         (3, return S_crash);
         (1, map (fun (s, x) -> S_vol_store (s, x)) sv);
         (1, map (fun s -> S_emit s) slot);
         (1, map (fun (s, x) -> S_guard (s, x)) sv);
       ])

(** Crash-sweep subjects: programs with explicit crash points and an
    in-program recovery checker ({!checker_name}) whose invariant the
    durable image can break while the working image satisfies it. *)
let arb_crash =
  QCheck.make
    QCheck.Gen.(map (program_of_steps ~checker:true) gen_crash_steps)
    ~print:Printer.to_string

let random_mixed rand =
  program_of_steps (QCheck.Gen.generate1 ~rand gen_mixed_steps)

let random_crash rand =
  program_of_steps ~checker:true (QCheck.Gen.generate1 ~rand gen_crash_steps)

let has_checker p = Program.mem p checker_name
let workload t = ignore (Hippo_pmcheck.Interp.call t "main" [])
let setup = [ ("main", []) ]
