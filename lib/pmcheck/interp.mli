(** The PMIR interpreter and durability-bug finder.

    Plays the role pmemcheck plays for the original system: it executes
    the program under test, records a PM-operation trace (stores, flushes,
    fences, calls — each with its call stack), and reports every store
    that is not durable when a crash point or program exit is reached.

    Programs are prepared once (register names become array slots, labels
    become code indices, callees become function indices — see {!Prep}),
    which makes the YCSB benchmark workloads tractable.

    This is the only way PMIR runs: every detector, crash sweep, fuzz
    oracle, simulated fleet and served store executes through {!call}.

    A typical bug-finding session:
    {[
      let t = Interp.create Interp.default_config prog in
      ignore (Interp.call t "main" []);
      Interp.exit_check t;
      let bugs = Interp.bugs t in
      ...
    ]} *)

open Hippo_pmir

exception Aborted  (** the program called the [abort] intrinsic *)

exception Out_of_fuel

exception Stopped_at_crash
(** raised at the crash point armed by {!arm_crash}; the durable image is
    then the crash state under study *)

type config = {
  trace : bool;  (** record the PM operation trace and site statistics *)
  fuel : int;  (** maximum interpreted instructions *)
  cost : Cost.t option;  (** account simulated latency *)
  track_images : bool;
      (** maintain incremental {!Imghash} fingerprints of both PM images
          (the single-pass crash sweep's capture mode; default false) *)
  coverage : Coverage.t option;
      (** mark executed control edges in this map (the fuzzer's guidance
          signal); [None] (the default) skips all marking — the hot loop
          only tests one immutable field per branch *)
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
      (** region sizes in bytes; {!default_config} is the one place they
          default *)
}

val default_config : config

type t
(** A machine: the prepared program plus everything its execution
    accumulates — memory, persistency state, trace, bugs, output,
    simulated cost, coverage, crash points. *)

(** [create ?pm_image cfg prog] prepares the program and builds a fresh
    machine; [pm_image] (a prefix image, see {!Mem}) seeds persistent
    memory (a restart) and [pm_brk] restores the PM allocator's
    high-water mark with it. *)
val create : ?pm_image:Bytes.t -> ?pm_brk:int -> config -> Program.t -> t

val mem : t -> Mem.t

(** [set_crash_hook t f] fires [f] at every explicit crash point, after
    bug collection and before an armed stop — the single-pass sweep's
    image-capture callback. *)
val set_crash_hook : t -> (unit -> unit) -> unit

(** [arm_crash t ~at] makes the [at]-th explicit crash point (absolute,
    1-based, counted by {!crash_points_hit}) raise {!Stopped_at_crash}.
    It is the only way to stop at a crash, and it works on a live
    machine: the simulation harness arms a crash for one workload call
    and disarms it for the next without rebuilding the session. *)
val arm_crash : t -> at:int -> unit

val disarm_crash : t -> unit

(** Explicit crash points passed so far. Maintained whether or not the
    trace is recorded, so crash points can be counted without
    materializing a trace. *)
val crash_points_hit : t -> int

(** [call t name args] invokes a function from the host (as a test driver
    invokes the program under valgrind). Persistency state, trace and
    detected bugs accumulate across calls. Raises {!Mem.Trap},
    {!Aborted}, {!Out_of_fuel} or {!Stopped_at_crash}. *)
val call : t -> string -> int list -> int

(** [exit_check t] performs the implicit crash point at program exit:
    pmemcheck's "stores not made persistent" summary. *)
val exit_check : t -> unit

val trace : t -> Trace.event list
val site_stats : t -> Sitestats.t

(** Deduplicated bug reports (see {!Report.same_static_bug}). *)
val bugs : t -> Report.bug list

(** Every dynamic report, undeduplicated (the on-disk trace form). *)
val raw_bugs : t -> Report.bug list

(** Values passed to the [emit] intrinsic, in order — the program's
    observable output, compared by the do-no-harm verifier. *)
val output : t -> int list

val cost_ns : t -> float
val steps : t -> int
val pstate : t -> Pstate.t

(** The durable PM image (what a crash would preserve right now), as a
    prefix implicitly zero-extended to [pm_size] (see {!Mem}). *)
val crash_image : t -> Bytes.t

val global_addr : t -> string -> int

(** One-shot convenience: run [entry] with [args] under the interpreter,
    then the exit check. *)
val run :
  ?pm_image:Bytes.t ->
  ?config:config ->
  Program.t ->
  entry:string ->
  args:int list ->
  t * (int, [ `Stopped_at_crash | `Aborted | `Out_of_fuel ]) result
