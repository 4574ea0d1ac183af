(** Machine state for the interpreter.

    One state record owns everything an execution accumulates — memory,
    persistency state, trace, bugs, output, simulated cost, coverage,
    crash points. {!Interp} walks prepared code ({!Prep}) over it.

    The record is exposed concretely because the dispatch loop lives in a
    sibling module and field access must not cost a function call. Treat
    it as read-only outside [lib/pmcheck]. *)

open Hippo_pmir

exception Aborted
exception Out_of_fuel
exception Stopped_at_crash

type config = {
  trace : bool;  (** record the PM operation trace *)
  fuel : int;  (** maximum interpreted instructions *)
  cost : Cost.t option;  (** account simulated latency *)
  stop_at_crash : int option;  (** halt at the n-th crash point (1-based) *)
  track_images : bool;  (** fingerprint both PM images incrementally *)
  coverage : Coverage.t option;
      (** mark executed control edges in this map (the fuzzer's signal);
          [None] (the default) skips all marking *)
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
}

val default_config : config

type fcell = { mutable fv : float }
(** all-float cell: in-place (unboxed) accumulation for simulated cost *)

type t = {
  prog : Program.t;
  pfuncs : Prep.pfunc array;
  fidx : (string, int) Hashtbl.t;
  mem : Mem.t;
  ps : Pstate.t;
  cfg : config;
  cov : Coverage.t option;  (** = [cfg.coverage], hoisted for the hot loop *)
  cost_acc : fcell;
  mutable seq : int;
  mutable steps : int;
  mutable trace_rev : Trace.event list;
  mutable bugs_rev : Report.bug list;
  mutable output_rev : int list;
  mutable crashes_hit : int;
  mutable armed_crash : int option;
  mutable crash_hook : (unit -> unit) option;
  mutable frames : Trace.stack;  (** current call stack, innermost first *)
  stats : Sitestats.t;  (** per-site pointer-class observations *)
}

val create : ?pm_image:Bytes.t -> ?pm_brk:int -> config -> Program.t -> t
val mem : t -> Mem.t
val set_crash_hook : t -> (unit -> unit) -> unit

(** [arm_crash t ~at] schedules {!Stopped_at_crash} for the [at]-th
    explicit crash point (absolute, 1-based, against
    {!crash_points_hit}). Unlike [cfg.stop_at_crash] it is mutable on a
    live machine: the simulation harness arms a crash for one workload
    call and disarms for the next, without rebuilding the session.
    The check lives in {!record_crash_point}. *)
val arm_crash : t -> at:int -> unit

val disarm_crash : t -> unit
val crash_points_hit : t -> int
val next_seq : t -> int
val push_event : t -> Trace.event -> unit
val classify_arg : int -> Trace.arg_class

(** [record_crash_point t ~iid ~loc] advances the crash-point counter,
    records the trace event, collects unpersisted-store bugs, fires the
    crash hook and honours [stop_at_crash]. *)
val record_crash_point : t -> iid:Iid.t option -> loc:Loc.t -> unit

(** The implicit crash point at program exit. *)
val exit_check : t -> unit

val trace : t -> Trace.event list
val site_stats : t -> Sitestats.t
val bugs : t -> Report.bug list
val raw_bugs : t -> Report.bug list
val output : t -> int list
val cost_ns : t -> float
val steps : t -> int
val pstate : t -> Pstate.t
val crash_image : t -> Bytes.t
val global_addr : t -> string -> int
