(** Program preparation: the one-time lowering the interpreter walks.

    Register names become array slots, block labels become code indices,
    callees become function indices, and coverage-edge hashes are
    precomputed from the stable (function, block, successor) naming — so
    the interpreter loop never hashes a string or searches a table at run
    time. *)

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

(* Branchy operations carry their coverage-map indices, precomputed from
   the stable (function, block, successor) naming at preparation time so
   the hot loop never hashes a string. *)
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
  pslots : int array;
  code : pinstr array;
}

let intrinsic_of_name = function
  | "pm_alloc" -> Some Ipm_alloc
  | "pm_base" -> Some Ipm_base
  | "pm_size" -> Some Ipm_size
  | "malloc" -> Some Imalloc
  | "free" -> Some Ifree
  | "emit" -> Some Iemit
  | "abort" -> Some Iabort
  | _ -> None

let prepare_func ~fidx ~global_addr (f : Func.t) : pfunc =
  let slots = Hashtbl.create 32 in
  let next = ref 0 in
  let slot r =
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add slots r i;
        i
  in
  let pslots = Array.of_list (List.map slot (Func.params f)) in
  let blocks = Func.blocks f in
  (* Block label -> code index of its first instruction. *)
  let starts = Hashtbl.create 16 in
  let _ =
    List.fold_left
      (fun idx (b : Func.block) ->
        Hashtbl.add starts b.label idx;
        idx + List.length b.instrs)
      0 blocks
  in
  let target l =
    match Hashtbl.find_opt starts l with
    | Some i -> i
    | None -> Mem.trap "undefined label %S in @%s" l (Func.name f)
  in
  let pv : Value.t -> pval = function
    | Value.Reg r -> PReg (slot r)
    | Value.Imm n -> PImm n
    | Value.Global g -> PImm (global_addr g)
    | Value.Null -> PImm 0
  in
  let fname = Func.name f in
  let pop ~block (i : Instr.t) : pop =
    let cov dest = Coverage.edge ~func:fname ~block ~dest in
    match Instr.op i with
    | Instr.Store { addr; value; size; nontemporal } ->
        PStore { addr = pv addr; value = pv value; size; nt = nontemporal }
    | Instr.Load { dst; addr; size } ->
        PLoad { dst = slot dst; addr = pv addr; size }
    | Instr.Flush { kind; addr } -> PFlush { kind; addr = pv addr }
    | Instr.Fence { kind } -> PFence { kind }
    | Instr.Binop { dst; op; lhs; rhs } ->
        PBinop { dst = slot dst; op; lhs = pv lhs; rhs = pv rhs }
    | Instr.Mov { dst; src } -> PMov { dst = slot dst; src = pv src }
    | Instr.Gep { dst; base; offset } ->
        PGep { dst = slot dst; base = pv base; offset = pv offset }
    | Instr.Alloca { dst; size } -> PAlloca { dst = slot dst; size }
    | Instr.Call { dst; callee; args } ->
        let target =
          match Hashtbl.find_opt fidx callee with
          | Some i -> Cfunc i
          | None -> (
              match intrinsic_of_name callee with
              | Some it -> Cintrinsic it
              | None -> Mem.trap "call to undefined function @%s" callee)
        in
        PCall
          {
            dst = (match dst with Some d -> slot d | None -> -1);
            callee = target;
            args = Array.of_list (List.map pv args);
            edge = cov callee;
          }
    | Instr.Br { target = l } -> PJmp { target = target l; edge = cov l }
    | Instr.Condbr { cond; if_true; if_false } ->
        PCondbr
          {
            cond = pv cond;
            if_true = target if_true;
            if_false = target if_false;
            edge_true = cov if_true;
            edge_false = cov if_false;
          }
    | Instr.Ret v -> PRet (Option.map pv v)
    | Instr.Crash -> PCrash { edge = cov "!crash" }
  in
  let code =
    List.concat_map
      (fun (b : Func.block) ->
        List.map
          (fun i ->
            { iid = Instr.iid i; loc = Instr.loc i; op = pop ~block:b.label i })
          b.instrs)
      blocks
    |> Array.of_list
  in
  { fname = Func.name f; nregs = !next; pslots; code }
