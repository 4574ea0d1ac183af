(** The PMIR interpreter and durability-bug finder.

    Plays the role pmemcheck plays for the original system: it executes the
    program under test, records a PM-operation trace (stores, flushes,
    fences, calls — each with its call stack), and reports every store that
    is not durable when a crash point or program exit is reached.

    One state record owns everything an execution accumulates — memory,
    persistency state, trace, bugs, output, simulated cost, coverage,
    crash points — plus the run configuration; {!exec_call} is a direct
    walk over the prepared code ({!Prep}) that updates it. *)

open Hippo_pmir
open Prep

exception Aborted
exception Out_of_fuel
exception Stopped_at_crash

type config = {
  trace : bool;
  fuel : int;
  cost : Cost.t option;
  track_images : bool;
  coverage : Coverage.t option;
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
}

(* [trace = true] is the inspection-friendly default for one-shot runs
   and the repair pipeline (the dynamic detector and Trace-AA read the
   events). Every hot loop — crash sweeps, the fuzz oracle, the served
   store, bench cases — overrides it to [false] at its own call site:
   event materialization is the single biggest per-instruction cost.
   Results do not depend on it: call events take a seq only when
   tracing, so seq numbers differ, but bug classification reads only the
   relative order of seqs, which is the same either way. *)
let default_config =
  {
    trace = true;
    fuel = 200_000_000;
    cost = None;
    track_images = false;
    coverage = None;
    vol_size = 1 lsl 24;
    stack_size = 1 lsl 22;
    global_size = 1 lsl 20;
    pm_size = 1 lsl 24;
  }

(* The simulated-latency accumulator lives in its own all-float record so
   the interpreter updates it in place: a [mutable float] in the mixed-field
   state record below would re-box on every addition, which is the single
   largest per-instruction allocation when cost accounting is on. *)
type fcell = { mutable fv : float }

type t = {
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
      (** stop when [crashes_hit] reaches this absolute count; see
          {!arm_crash} *)
  mutable crash_hook : (unit -> unit) option;
      (** fired at every explicit crash point (the single-pass sweep's
          image-capture callback) *)
  mutable frames : Trace.stack;  (** current call stack, innermost first *)
  stats : Sitestats.t;  (** per-site pointer-class observations *)
}

let create ?pm_image ?pm_brk (cfg : config) (prog : Program.t) : t =
  let funcs = Program.funcs prog in
  let fidx = Hashtbl.create 64 in
  List.iteri (fun i f -> Hashtbl.add fidx (Func.name f) i) funcs;
  let mem =
    Mem.create ~vol_size:cfg.vol_size ~stack_size:cfg.stack_size
      ~global_size:cfg.global_size ~pm_size:cfg.pm_size ?pm_image ?pm_brk
      ~track_images:cfg.track_images (Program.globals prog)
  in
  let global_addr = Mem.global_addr mem in
  let pfuncs =
    Array.of_list (List.map (Prep.prepare_func ~fidx ~global_addr) funcs)
  in
  {
    pfuncs;
    fidx;
    mem;
    ps = Pstate.create ();
    cfg;
    cov = cfg.coverage;
    cost_acc = { fv = 0.0 };
    seq = 0;
    steps = 0;
    trace_rev = [];
    bugs_rev = [];
    output_rev = [];
    crashes_hit = 0;
    armed_crash = None;
    crash_hook = None;
    frames = [];
    stats = Sitestats.create ();
  }

let mem t = t.mem
let set_crash_hook t f = t.crash_hook <- Some f
let arm_crash t ~at = t.armed_crash <- Some at
let disarm_crash t = t.armed_crash <- None
let crash_points_hit t = t.crashes_hit

(* Crash points and events ------------------------------------------------ *)

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

(* Callers test [t.cfg.trace] first, so a disabled trace never builds the
   event. *)
let push_event t ev = t.trace_rev <- ev :: t.trace_rev

let classify_arg v : Trace.arg_class =
  if Layout.is_pm v then Trace.Pm_ptr
  else if Layout.is_volatile_ptr v then Trace.Vol_ptr
  else Trace.Not_ptr

(* A crash point, explicit or at exit: record the event and collect every
   store not yet durable. The seq counter advances whether or not the
   trace is recorded; only the event construction is gated. *)
let crash_point t ~iid ~loc ~stack =
  let seq = next_seq t in
  if t.cfg.trace then push_event t (Trace.Crash_point { iid; loc; stack; seq });
  let crash : Report.crash_info =
    { crash_iid = iid; crash_loc = loc; crash_stack = stack }
  in
  t.bugs_rev <- List.rev_append (Pstate.unpersisted_bugs t.ps ~crash) t.bugs_rev

(* An explicit crash point also advances the counter, fires the crash hook
   and honours an armed stop. *)
let record_crash_point t ~iid ~loc =
  t.crashes_hit <- t.crashes_hit + 1;
  crash_point t ~iid ~loc ~stack:t.frames;
  (match t.crash_hook with Some f -> f () | None -> ());
  match t.armed_crash with
  | Some n when t.crashes_hit >= n -> raise Stopped_at_crash
  | _ -> ()

(* Execution -------------------------------------------------------------- *)

let rec exec_call (t : t) (pf : pfunc) (args : int array) : int =
  if Array.length args <> Array.length pf.pslots then
    Mem.trap "@%s called with %d arguments (expects %d)" pf.fname
      (Array.length args) (Array.length pf.pslots);
  let regs = Array.make pf.nregs 0 in
  Array.iteri (fun i slot -> regs.(slot) <- args.(i)) pf.pslots;
  let stack_mark = Mem.stack_mark t.mem in
  let cost = t.cfg.cost in
  let ev (v : pval) = match v with PReg i -> regs.(i) | PImm n -> n in
  let acc = t.cost_acc in
  let charge ns = acc.fv <- acc.fv +. ns in
  let code = pf.code in
  let ncode = Array.length code in
  let pc = ref 0 in
  let result = ref 0 in
  let running = ref true in
  while !running do
    if !pc >= ncode then
      Mem.trap "fell off the end of @%s (missing ret)" pf.fname;
    t.steps <- t.steps + 1;
    if t.steps > t.cfg.fuel then raise Out_of_fuel;
    let i = Array.unsafe_get code !pc in
    incr pc;
    match i.op with
    | PBinop { dst; op; lhs; rhs } ->
        let a = ev lhs and b = ev rhs in
        let r =
          match op with
          | Instr.Add -> a + b
          | Instr.Sub -> a - b
          | Instr.Mul -> a * b
          | Instr.Div -> if b = 0 then Mem.trap "division by zero" else a / b
          | Instr.Rem -> if b = 0 then Mem.trap "remainder by zero" else a mod b
          | Instr.And -> a land b
          | Instr.Or -> a lor b
          | Instr.Xor -> a lxor b
          | Instr.Shl -> Instr.shl a b
          | Instr.Lshr -> Instr.lshr a b
          | Instr.Eq -> if a = b then 1 else 0
          | Instr.Ne -> if a <> b then 1 else 0
          | Instr.Lt -> if a < b then 1 else 0
          | Instr.Le -> if a <= b then 1 else 0
          | Instr.Gt -> if a > b then 1 else 0
          | Instr.Ge -> if a >= b then 1 else 0
        in
        regs.(dst) <- r;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PMov { dst; src } ->
        regs.(dst) <- ev src;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PGep { dst; base; offset } ->
        regs.(dst) <- ev base + ev offset;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PLoad { dst; addr; size } ->
        let a = ev addr in
        regs.(dst) <- Mem.load t.mem ~addr:a ~size;
        (match cost with
        | Some c ->
            charge (if Layout.is_pm a then c.load_pm_ns else c.load_dram_ns)
        | None -> ())
    | PStore { addr; value; size; nt } ->
        let a = ev addr and v = ev value in
        Mem.store t.mem ~addr:a ~size v;
        if t.cfg.trace then
          Sitestats.observe t.stats ~site:i.iid ~arg:(-1) (classify_arg a);
        if Layout.is_pm a then begin
          let seq = next_seq t in
          (if nt then
             Pstate.store_nt t.ps t.mem ~iid:i.iid ~loc:i.loc ~stack:t.frames
               ~addr:a ~size ~seq
           else
             ignore
               (Pstate.store t.ps ~iid:i.iid ~loc:i.loc ~stack:t.frames ~addr:a
                  ~size ~seq));
          if t.cfg.trace then
            push_event t
              (Trace.Store
                 {
                   iid = i.iid;
                   loc = i.loc;
                   stack = t.frames;
                   addr = a;
                   size;
                   nontemporal = nt;
                   seq;
                 })
        end;
        (match cost with
        | Some c ->
            charge (if Layout.is_pm a then c.store_pm_ns else c.store_dram_ns)
        | None -> ())
    | PFlush { kind; addr } ->
        let a = ev addr in
        let moved = Pstate.flush t.ps t.mem ~iid:i.iid ~kind ~addr:a in
        if Layout.is_pm a then begin
          let seq = next_seq t in
          if t.cfg.trace then
            push_event t
              (Trace.Flush
                 {
                   iid = i.iid;
                   loc = i.loc;
                   stack = t.frames;
                   kind;
                   line_addr = Layout.line_base a;
                   seq;
                 })
        end;
        (match cost with
        | Some c ->
            charge
              (if Layout.is_pm a then
                 if moved > 0 then c.flush_pm_dirty_ns else c.flush_pm_clean_ns
               else c.flush_vol_ns)
        | None -> ())
    | PFence { kind } ->
        let seq = next_seq t in
        let drained = Pstate.fence t.ps t.mem ~seq in
        if t.cfg.trace then
          push_event t
            (Trace.Fence
               { iid = i.iid; loc = i.loc; stack = t.frames; kind; seq });
        (match cost with
        | Some c ->
            charge
              (c.fence_base_ns
              +. (float_of_int drained *. c.fence_drain_line_ns))
        | None -> ())
    | PAlloca { dst; size } ->
        regs.(dst) <- Mem.alloc_stack t.mem size;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PCall { dst; callee; args; edge } -> (
        (match t.cov with Some c -> Coverage.mark c edge | None -> ());
        match callee with
        | Cintrinsic it ->
            let arg k = ev args.(k) in
            let r =
              match it with
              | Ipm_alloc -> Mem.alloc_pm t.mem (arg 0)
              | Ipm_base -> Layout.pm_base
              | Ipm_size -> t.cfg.pm_size
              | Imalloc -> Mem.alloc_vol t.mem (arg 0)
              | Ifree -> 0
              | Iemit ->
                  t.output_rev <- arg 0 :: t.output_rev;
                  0
              | Iabort -> raise Aborted
            in
            if dst >= 0 then regs.(dst) <- r;
            (match cost with Some c -> charge c.call_ns | None -> ())
        | Cfunc fi ->
            let callee_pf = t.pfuncs.(fi) in
            let argv = Array.map ev args in
            if t.cfg.trace then
              Array.iteri
                (fun k v ->
                  Sitestats.observe t.stats ~site:i.iid ~arg:k (classify_arg v))
                argv;
            (if t.cfg.trace then
               let seq = next_seq t in
               push_event t
                 (Trace.Call
                    {
                      iid = i.iid;
                      loc = i.loc;
                      stack = t.frames;
                      callee = callee_pf.fname;
                      arg_classes = Array.to_list (Array.map classify_arg argv);
                      seq;
                    }));
            t.frames <-
              {
                Trace.func = callee_pf.fname;
                callsite = Some i.iid;
                callsite_loc = Some i.loc;
              }
              :: t.frames;
            (match cost with Some c -> charge c.call_ns | None -> ());
            let r = exec_call t callee_pf argv in
            t.frames <- List.tl t.frames;
            if dst >= 0 then regs.(dst) <- r)
    | PJmp { target; edge } ->
        (match t.cov with Some c -> Coverage.mark c edge | None -> ());
        pc := target;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PCondbr { cond; if_true; if_false; edge_true; edge_false } ->
        let taken = ev cond <> 0 in
        (match t.cov with
        | Some c -> Coverage.mark c (if taken then edge_true else edge_false)
        | None -> ());
        pc := (if taken then if_true else if_false);
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PRet v ->
        result := (match v with Some v -> ev v | None -> 0);
        running := false
    | PCrash { edge } ->
        (match t.cov with Some c -> Coverage.mark c edge | None -> ());
        record_crash_point t ~iid:(Some i.iid) ~loc:i.loc
  done;
  Mem.stack_release t.mem stack_mark;
  !result

(** [call t name args] invokes a function from the host (as the test driver
    invokes the program under valgrind). The persistency state, the trace
    and detected bugs accumulate across calls. *)
let call t name args =
  match Hashtbl.find_opt t.fidx name with
  | None -> Mem.trap "call to undefined function @%s" name
  | Some fi ->
      t.frames <- [ { Trace.func = name; callsite = None; callsite_loc = None } ];
      Fun.protect
        ~finally:(fun () -> t.frames <- [])
        (fun () -> exec_call t t.pfuncs.(fi) (Array.of_list args))

(* Results ---------------------------------------------------------------- *)

let exit_check t =
  crash_point t ~iid:None ~loc:(Loc.make ~file:"<exit>" ~line:0) ~stack:[]

let trace t = List.rev t.trace_rev
let site_stats t = t.stats
let bugs t = Report.dedup (List.rev t.bugs_rev)
let raw_bugs t = List.rev t.bugs_rev
let output t = List.rev t.output_rev
let cost_ns t = t.cost_acc.fv
let steps t = t.steps
let pstate t = t.ps
let crash_image t = Mem.crash_image t.mem
let global_addr t name = Mem.global_addr t.mem name

(** One-shot convenience: run [entry] with [args] under the interpreter,
    then apply the exit check. Returns the machine for inspection. *)
let run ?pm_image ?(config = default_config) prog ~entry ~args =
  let t = create ?pm_image config prog in
  let ret =
    try Ok (call t entry args) with
    | Stopped_at_crash -> Error `Stopped_at_crash
    | Aborted -> Error `Aborted
    | Out_of_fuel -> Error `Out_of_fuel
  in
  (match ret with Ok _ -> exit_check t | Error _ -> ());
  (t, ret)
