(** PMIR functions: a parameter list and an ordered list of labelled basic
    blocks. The first block is the entry block. Registers (including
    parameters) are function-local and mutable, so loops are expressed by
    reassignment rather than phi nodes. *)

type block = { label : string; instrs : Instr.t list }

type t = { name : string; params : string list; blocks : block list }

let make ~name ~params ~blocks = { name; params; blocks }

let name t = t.name
let params t = t.params
let blocks t = t.blocks

let entry t =
  match t.blocks with
  | [] -> invalid_arg (Fmt.str "Func.entry: %s has no blocks" t.name)
  | b :: _ -> b

let find_block t label = List.find_opt (fun b -> b.label = label) t.blocks

let instrs t = List.concat_map (fun b -> b.instrs) t.blocks

(** [find_instr t iid] returns the instruction with identity [iid]. *)
let find_instr t iid =
  List.find_opt (fun i -> Iid.equal (Instr.iid i) iid) (instrs t)

let map_blocks f t = { t with blocks = List.map f t.blocks }

(** [map_instrs f t] rebuilds every block by applying [f] to each
    instruction; [f] returns the list of instructions replacing it, which
    is how flush/fence insertion is implemented. Blocks, and the function,
    that [f] leaves unchanged are returned physically shared with [t]. *)
let map_instrs f t =
  let map_block b =
    let instrs = List.concat_map f b.instrs in
    if List.equal ( == ) instrs b.instrs then b else { b with instrs }
  in
  let blocks = List.map map_block t.blocks in
  if List.equal ( == ) blocks t.blocks then t else { t with blocks }

let fold_instrs f acc t =
  List.fold_left (fun acc b -> List.fold_left f acc b.instrs) acc t.blocks

(** All registers defined anywhere in the function, parameters included. *)
let defined_regs t =
  let defs =
    fold_instrs
      (fun acc i -> match Instr.def i with Some d -> d :: acc | None -> acc)
      [] t
  in
  List.sort_uniq String.compare (t.params @ defs)

(** Call sites, in block order: [(iid, callee, args)]. *)
let call_sites t =
  fold_instrs
    (fun acc i ->
      match Instr.op i with
      | Call { callee; args; _ } -> (Instr.iid i, callee, args) :: acc
      | _ -> acc)
    [] t
  |> List.rev

let equal_modulo_iid a b =
  let block_eq x y =
    String.equal x.label y.label
    && List.equal
         (fun i j -> Instr.op_equal (Instr.op i) (Instr.op j))
         x.instrs y.instrs
  in
  String.equal a.name b.name
  && List.equal String.equal a.params b.params
  && List.equal block_eq a.blocks b.blocks
