(* Clocks, sample sets, process statistics and the result record every
   workload returns. *)

external clock_ns : unit -> int = "hippo_bench_clock_ns" [@@noalloc]

(* Monotonic seconds. *)
let now () = float_of_int (clock_ns ()) *. 1e-9

(* [timed f] runs [f] and returns its result with the elapsed seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A growable set of float samples. Workloads that run on several domains
   keep one set per task and [merge] them afterwards. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let merge ts =
    let r = create () in
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          add r t.a.(i)
        done)
      ts;
    r

  (* Nearest-rank quantile; [nan] on an empty set. *)
  let quantile t q =
    if t.n = 0 then nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let k = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) k))
    end

  let median t = quantile t 0.5
end

(* Median microseconds over 20 calls of [f]. *)
let sampled_us f =
  let s = Samples.create () in
  for _ = 1 to 20 do
    let _, dt = timed f in
    Samples.add s (dt *. 1e6)
  done;
  Samples.median s

(* Milliseconds spent in [f x], summed over [xs]. *)
let sum_ms f xs =
  List.fold_left
    (fun acc x -> acc +. (snd (timed (fun () -> f x)) *. 1e3))
    0. xs

let median_of xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.median s

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      let prefix = "VmHWM:" in
      List.fold_left
        (fun acc line ->
          if String.starts_with ~prefix line then
            Scanf.sscanf
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          else acc)
        nan
        (String.split_on_char '\n' text)

(* Allocation between two points, from Gc.quick_stat. Domains that have
   been joined are included, so workloads read these outside any pool. *)
type gc = { minor_words : float; major_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* Metrics and the per-run outcome *)

type value = Int of int | Float of float
type metric = { name : string; unit_ : string; value : value }

let float name unit_ v = { name; unit_; value = Float v }
let int name unit_ v = { name; unit_; value = Int v }

(* The end-to-end metrics every listed workload reports. An op is the
   workload's unit of work: a corpus case or a restart.
   [op_ms] holds one wall-clock sample per op, in milliseconds;
   [sim_ns_per_op] is the perfmodel's simulated cost of one op. *)
let end_to_end ~setup_s ~peak_rss_mb ~ops ~wall_s ~op_ms ~sim_ns_per_op =
  [
    float "setup_s" "s" setup_s;
    float "peak_rss_mb" "MiB" peak_rss_mb;
    float "ops_per_s" "1/s" (float_of_int ops /. wall_s);
    float "op_ms_p50" "ms" (Samples.quantile op_ms 0.5);
    float "op_ms_p90" "ms" (Samples.quantile op_ms 0.9);
    float "sim_ns_per_op" "sim_ns" sim_ns_per_op;
  ]

(* The timed part of [end_to_end], from a traced pass. *)
let traced_end_to_end ~ops ~wall_s ~op_ms =
  [
    float "ops_per_s" "1/s" (float_of_int ops /. wall_s);
    float "op_ms_p50" "ms" (Samples.quantile op_ms 0.5);
    float "op_ms_p90" "ms" (Samples.quantile op_ms 0.9);
  ]

(* The three runtime.* metrics, normalised per unit of work. *)
let gc_metrics (g : gc) ~per =
  let per = float_of_int (max 1 per) in
  [
    float "runtime.minor_words" "words/op" (g.minor_words /. per);
    float "runtime.major_words" "words/op" (g.major_words /. per);
    float "runtime.major_collections" "1/op"
      (float_of_int g.major_collections /. per);
  ]

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** correctness failures, one line each *)
  e2e : metric list;  (** end-to-end metrics, tracing off *)
  info : metric list;
      (** printed, not in the result JSON: what only this workload has *)
  traced_e2e : metric list;  (** the same, from the traced pass *)
  layer : metric list;  (** per-layer metrics (traced runs only) *)
}

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  self : string;  (** this executable, for set-up probes *)
}

(* In a traced run the untraced pass gets the first half of the time
   and the traced pass repeats the same work. *)
let untraced_seconds ctx = if ctx.trace then ctx.seconds /. 2. else ctx.seconds

(* Tracing overhead: how much longer the traced pass took for the same
   work, in percent. *)
let overhead_metric ~untraced_s ~traced_s =
  float "trace.overhead_pct" "%" (100. *. ((traced_s /. untraced_s) -. 1.))

(* JSON has no NaN or infinity; main.ml reports such a value as wrong. *)
let value_to_string = function
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"

let finite m = match m.value with Int _ -> true | Float f -> Float.is_finite f
