(* Facade: the pipeline pass lives in the engine library (lib/engine).
   Kept because benchmark/ reaches [Hippo_core.Fix] through
   [open Hippo_core]; once the next benchmark revision names
   [Hippo_engine.Fix] directly, its remaining users can move there and
   this file can go. *)
include Hippo_engine.Fix
