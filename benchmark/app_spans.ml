(* Spans around the closures of an App.t: every call's duration lands in
   the sample set of its closure, and every insert, read or delete also
   adds its interpreter steps and its simulated cost. Each task owns its
   own [t], so wrapped sessions can run on several domains without
   sharing. *)

open Hippo_apps
module Samples = Measure.Samples

type t = {
  insert : Samples.t;
  read : Samples.t;
  delete : Samples.t;
  count : Samples.t;
  check : Samples.t;
  reopen : Samples.t;
  mutable op_steps : int;
  op_cost_ns : Samples.t;  (** per insert, read or delete *)
}

let create () =
  {
    insert = Samples.create ();
    read = Samples.create ();
    delete = Samples.create ();
    count = Samples.create ();
    check = Samples.create ();
    reopen = Samples.create ();
    op_steps = 0;
    op_cost_ns = Samples.create ();
  }

(* Calls that end in an exception (an injected crash stops an insert)
   still count as time spent in the app. *)
let span s f =
  let t0 = Measure.now () in
  Fun.protect ~finally:(fun () -> Samples.add s (Measure.now () -. t0)) f

let op_span acc s (app : App.t) f =
  let steps0 = Hippo_pmcheck.Interp.steps app.App.interp in
  let cost0 = app.App.cost_ns () in
  Fun.protect
    ~finally:(fun () ->
      acc.op_steps <-
        acc.op_steps + Hippo_pmcheck.Interp.steps app.App.interp - steps0;
      Samples.add acc.op_cost_ns (app.App.cost_ns () -. cost0))
    (fun () -> span s f)

let rec wrap acc (app : App.t) : App.t =
  {
    app with
    App.insert =
      (fun ~key ~value ->
        op_span acc acc.insert app (fun () -> app.App.insert ~key ~value));
    read =
      (fun ~key -> op_span acc acc.read app (fun () -> app.App.read ~key));
    delete =
      (fun ~key -> op_span acc acc.delete app (fun () -> app.App.delete ~key));
    count = (fun () -> span acc.count app.App.count);
    check = (fun () -> span acc.check app.App.check);
    reopen =
      (fun ~pm_image ->
        span acc.reopen (fun () ->
            Result.map (wrap acc) (app.App.reopen ~pm_image)));
  }

let merge ts =
  let m f = Samples.merge (List.map f ts) in
  {
    insert = m (fun t -> t.insert);
    read = m (fun t -> t.read);
    delete = m (fun t -> t.delete);
    count = m (fun t -> t.count);
    check = m (fun t -> t.check);
    reopen = m (fun t -> t.reopen);
    op_steps = List.fold_left (fun a t -> a + t.op_steps) 0 ts;
    op_cost_ns = m (fun t -> t.op_cost_ns);
  }

(* Seconds spent inside insert, read and delete. *)
let op_total t =
  List.fold_left (fun a s -> a +. Samples.sum s) 0. [ t.insert; t.read; t.delete ]

(* Seconds spent inside any wrapped closure. *)
let total t =
  List.fold_left
    (fun a s -> a +. Samples.sum s)
    0.
    [ t.insert; t.read; t.delete; t.count; t.check; t.reopen ]

let us_p50 name s = Measure.float name "us" (Samples.median s *. 1e6)
let ms_p50 name s = Measure.float name "ms" (Samples.median s *. 1e3)
