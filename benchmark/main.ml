(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs workload W for about S seconds on inputs made from seed N, checks
   its outputs, prints every metric by name with its unit, and ends with
   one JSON line: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones, measured by a traced pass that repeats the untraced
   pass's work (the traced end-to-end numbers are printed next to the
   untraced ones; their difference is the tracing overhead). The exit
   code is 1 when any output is wrong.

     main.exe --probe W

   does workload W's set-up and exits: the set-up probes time fresh
   launches of it. See NOTES.md for the workloads and metrics. *)

let workloads =
  [
    ("repair-corpus", (Repair_corpus.run, Repair_corpus.probe));
    ("sim-chaos", (Sim_chaos.run, Sim_chaos.probe));
    ("fuzz-campaign", (Fuzz_campaign.run, Fuzz_campaign.probe));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe --probe W";
  exit 2

let print_metrics title ms =
  if ms <> [] then begin
    Printf.printf "%s\n" title;
    List.iter
      (fun (m : Measure.metric) ->
        Printf.printf "  %-34s %s %s\n" m.Measure.name
          (Measure.value_to_string m.Measure.value)
          m.Measure.unit_)
      ms
  end

let json_line ~correct ~attempted ~failed ms =
  let metric (m : Measure.metric) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Measure.name
      (Measure.value_to_string m.Measure.value)
      m.Measure.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  match get "probe" with
  | Some w -> (
      match List.assoc_opt w workloads with
      | Some (_, probe) -> probe ()
      | None -> usage ())
  | None ->
      let int_opt k =
        match Option.bind (get k) int_of_string_opt with
        | Some v -> v
        | None -> usage ()
      in
      let name = match get "workload" with Some w -> w | None -> usage () in
      let run =
        match List.assoc_opt name workloads with
        | Some (run, _) -> run
        | None -> usage ()
      in
      let seconds = int_opt "seconds" in
      let ctx =
        {
          Measure.seed = int_opt "seed";
          seconds = float_of_int (max 1 seconds);
          trace = int_opt "trace" <> 0;
          self = Sys.executable_name;
        }
      in
      Printf.printf "workload %s, seed %d, %d s, trace %b\n%!" name
        ctx.Measure.seed seconds ctx.Measure.trace;
      (* an exception (a dropped connection, a failed build of a
         variant) is a wrong run, not a missing result *)
      let o =
        try run ctx
        with e ->
          {
            Measure.attempted = 1;
            failed = 1;
            problems = [ "run aborted: " ^ Printexc.to_string e ];
            e2e = [];
            info = [];
            traced_e2e = [];
            layer = [];
          }
      in
      print_metrics "end-to-end (tracing off):" o.Measure.e2e;
      print_metrics "also measured (not gated):" o.Measure.info;
      print_metrics "end-to-end (traced pass, same work):" o.Measure.traced_e2e;
      print_metrics "per-layer (traced pass):" o.Measure.layer;
      let reported =
        if ctx.Measure.trace then o.Measure.layer else o.Measure.e2e
      in
      let problems =
        o.Measure.problems
        @ List.filter_map
            (fun (m : Measure.metric) ->
              if Measure.finite m then None
              else Some (m.Measure.name ^ " is not a finite number"))
            reported
      in
      List.iter (fun p -> Printf.printf "WRONG: %s\n" p) problems;
      let correct = problems = [] && o.Measure.failed = 0 in
      Printf.printf "correct: %b, attempted %d, failed %d\n" correct
        o.Measure.attempted o.Measure.failed;
      print_endline
        (json_line ~correct ~attempted:o.Measure.attempted
           ~failed:o.Measure.failed reported);
      exit (if correct then 0 else 1)
