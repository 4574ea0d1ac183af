(** One simulated lifetime of a PM application: a deterministic KV
    workload against an {!Hippo_apps.App} session under injected faults
    (crashes at arbitrary crash points, torn cache lines, reordered
    write-back drain, recovery-then-re-crash chains), judged against a
    host-side shadow state plus the app's own recovery invariant.

    A scenario is a pure function of [(seed, index, config)]; its
    transcript MD5 is the digest the determinism battery compares
    across [--jobs] widths. *)

open Hippo_apps

type op =
  | Insert of { key : string; value : string }
  | Read of { key : string }
  | Delete of { key : string }

val op_to_string : op -> string

type violation = { step : int; kind : string; detail : string }

type config = {
  ops : int;  (** ops per scenario *)
  keyspace : int;  (** distinct keys the workload draws from *)
  rates : Faults.rates;
  force_crash_at : int option;
      (** crash (at most once) at this absolute crash point (1-based
          over the whole scenario) instead of drawing crashes from
          [rates] — the hook differential tests use to target one
          {!Crashsim} verdict *)
  recovery_ns : float;  (** virtual-clock penalty per restart *)
}

val default : config

type outcome = {
  index : int;
  digest : string;  (** hex MD5 of the transcript(s) *)
  ops_run : int;
  crashes : int;
  recoveries : int;
  reordered : int;  (** write-backs drained by injected reordering *)
  torn : int;  (** dirty records torn at crashes *)
  clock_ns : float;
  violations : violation list;  (** target app *)
  baseline_violations : violation list;  (** lockstep baseline, if any *)
  transcript : string;  (** the target transcript (reproducer payload) *)
}

(** The op sequence scenario [index] plays — the same stream derivation
    {!run} uses, so differential tests can replay it through
    {!Hippo_pmcheck.Crashsim}. *)
val ops_of : seed:int -> index:int -> config -> op list

(** [run ~seed ~index cfg ~make_app ?make_baseline ()] plays scenario
    [index]: [make_app] opens a fresh target session, [make_baseline]
    (optional) a baseline driven through the byte-identical op and
    fault schedule. Session construction failures surface as [Error]. *)
val run :
  seed:int ->
  index:int ->
  config ->
  make_app:(unit -> (App.t, string) result) ->
  ?make_baseline:(unit -> (App.t, string) result) ->
  unit ->
  (outcome, string) result
