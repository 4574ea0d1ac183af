(** Program preparation for the interpreter.

    Lowers {!Hippo_pmir} functions into a flat, name-free form: register
    names become array slots, block labels become code indices, callees
    become function indices, and coverage-edge hashes are precomputed.
    The interpreter ({!Interp}) walks the [code] array directly. *)

open Hippo_pmir

type pval = PReg of int | PImm of int

type intrinsic =
  | Ipm_alloc
  | Ipm_base
  | Ipm_size
  | Imalloc
  | Ifree
  | Iemit
  | Iabort

type callee = Cfunc of int | Cintrinsic of intrinsic

type pop =
  | PStore of { addr : pval; value : pval; size : int; nt : bool }
  | PLoad of { dst : int; addr : pval; size : int }
  | PFlush of { kind : Instr.flush_kind; addr : pval }
  | PFence of { kind : Instr.fence_kind }
  | PBinop of { dst : int; op : Instr.binop; lhs : pval; rhs : pval }
  | PMov of { dst : int; src : pval }
  | PGep of { dst : int; base : pval; offset : pval }
  | PAlloca of { dst : int; size : int }
  | PCall of { dst : int; callee : callee; args : pval array; edge : int }
      (** [dst = -1] when the result is discarded *)
  | PJmp of { target : int; edge : int }
  | PCondbr of {
      cond : pval;
      if_true : int;
      if_false : int;
      edge_true : int;
      edge_false : int;
    }
  | PRet of pval option
  | PCrash of { edge : int }

type pinstr = { iid : Iid.t; loc : Loc.t; op : pop }

type pfunc = {
  fname : string;
  nregs : int;
  pslots : int array;  (** parameter positions -> register slots *)
  code : pinstr array;
}

val intrinsic_of_name : string -> intrinsic option

(** [prepare_func ~fidx ~global_addr f] lowers one function. [fidx] maps
    function names to indices; [global_addr] resolves global names to
    their addresses (typically [Mem.global_addr mem]). *)
val prepare_func :
  fidx:(string, int) Hashtbl.t -> global_addr:(string -> int) -> Func.t -> pfunc
