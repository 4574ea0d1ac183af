(* An alias kept for the benchmark harness; see exec.mli. *)

let call = Interp.call
