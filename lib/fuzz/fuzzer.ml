open Hippo_pmir
open Hippo_pmcheck
module Pool = Hippo_parallel.Pool
module Stream = Hippo_parallel.Stream

type config = {
  seed : int;
  jobs : int;
  max_execs : int;
  max_time : float;
  corpus_dir : string option;
  smoke : bool;
}

let default_config =
  {
    seed = 0;
    jobs = 1;
    max_execs = 256;
    max_time = 0.;
    corpus_dir = None;
    smoke = false;
  }

type found = {
  f_oracle : string;
  f_detail : string;
  f_original : Program.t;
  f_shrunk : Program.t;
}

type summary = {
  execs : int;
  gen_count : int;
  mutant_count : int;
  corpus_size : int;
  corpus_digest : string;
  edges : int;
  blind_edges : int;
  memo_hits : int;
  memo_misses : int;
  found : found list;
}

let round_size = 16

(* RNG stream namespaces: guided candidates vs the blind baseline. *)
let ns_guided = 0
let ns_blind = 1

let generate rand =
  if Random.State.int rand 3 = 0 then Gen.random_crash rand
  else Gen.random_mixed rand

(* Candidate construction is serial and reads only the round-start corpus,
   so it is independent of the pool width. *)
let build_candidate cfg corpus ~round ~slot =
  let rand = Stream.state ~seed:cfg.seed [ ns_guided; round; slot ] in
  let from_gen () = ("gen", generate rand) in
  if round = 0 || Corpus.size corpus = 0 || Random.State.int rand 8 = 0 then
    from_gen ()
  else
    match Corpus.pick corpus rand with
    | None -> from_gen ()
    | Some e -> (
        match Mutate.mutate_stack ~hot:e.Corpus.hot rand e.Corpus.prog with
        | Some (mname, p') -> ("mut:" ^ mname, p')
        | None -> from_gen ())

let blind_edge_count cfg pool n =
  let edge_lists =
    Pool.map pool
      (fun i ->
        let rand = Stream.state ~seed:cfg.seed [ ns_blind; i ] in
        Oracle.coverage_edges (generate rand))
      (List.init n Fun.id)
  in
  let cov = Coverage.create () in
  List.iter (fun es -> ignore (Coverage.add ~into:cov es)) edge_lists;
  Coverage.count cov

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let save_reproducers dir found =
  ensure_dir dir;
  List.iteri
    (fun k f ->
      let base = Printf.sprintf "%02d-%s" k f.f_oracle in
      let write ext text =
        let oc = open_out (Filename.concat dir (base ^ ext)) in
        output_string oc text;
        close_out oc
      in
      write ".pmir" (Printer.to_string f.f_shrunk);
      write ".txt"
        (Printf.sprintf
           "oracle: %s\n\n%s\noriginal: %d instrs, shrunk: %d instrs\n"
           f.f_oracle f.f_detail
           (Program.size f.f_original)
           (Program.size f.f_shrunk)))
    found

let run cfg =
  let corpus = Corpus.create () in
  let deadline =
    if cfg.max_time > 0. then Some (Unix.gettimeofday () +. cfg.max_time)
    else None
  in
  let execs = ref 0
  and gen_count = ref 0
  and mutant_count = ref 0
  and memo_hits = ref 0
  and memo_misses = ref 0
  and violations = ref [] in
  Pool.run ~domains:cfg.jobs (fun pool ->
      let round = ref 0 in
      let continue_ () =
        !execs < cfg.max_execs
        && match deadline with
           | Some d -> Unix.gettimeofday () < d
           | None -> true
      in
      while continue_ () do
        let n = min round_size (cfg.max_execs - !execs) in
        let candidates =
          List.init n (fun slot ->
              build_candidate cfg corpus ~round:!round ~slot)
        in
        let results =
          Pool.map pool
            (fun (origin, prog) ->
              (origin, prog, Oracle.evaluate prog))
            candidates
        in
        List.iter
          (fun (origin, prog, (o : Oracle.outcome)) ->
            incr execs;
            if origin = "gen" then incr gen_count else incr mutant_count;
            memo_hits := !memo_hits + o.memo_hits;
            memo_misses := !memo_misses + o.memo_misses;
            List.iter
              (fun (v : Oracle.violation) ->
                violations := (v, prog) :: !violations)
              o.violations;
            ignore (Corpus.consider corpus ~origin prog o))
          results;
        incr round
      done;
      (* equal-exec-count coverage-blind baseline *)
      let blind_edges = blind_edge_count cfg pool !execs in
      let found =
        List.rev_map
          (fun ((v : Oracle.violation), prog) ->
            let shrunk =
              Shrink.shrink
                ~fails:(Oracle.fails ~oracle:v.oracle)
                prog
            in
            {
              f_oracle = v.oracle;
              f_detail = v.detail;
              f_original = prog;
              f_shrunk = shrunk;
            })
          !violations
      in
      (match cfg.corpus_dir with
      | None -> ()
      | Some dir ->
          ensure_dir dir;
          Corpus.save corpus ~dir:(Filename.concat dir "corpus");
          save_reproducers (Filename.concat dir "reproducers") found);
      {
        execs = !execs;
        gen_count = !gen_count;
        mutant_count = !mutant_count;
        corpus_size = Corpus.size corpus;
        corpus_digest = Corpus.digest corpus;
        edges = Corpus.edge_count corpus;
        blind_edges;
        memo_hits = !memo_hits;
        memo_misses = !memo_misses;
        found;
      })

let pp_summary ppf s =
  Fmt.pf ppf "fuzz summary@.";
  Fmt.pf ppf "  execs:     %d (%d generated, %d mutants)@." s.execs
    s.gen_count s.mutant_count;
  Fmt.pf ppf "  corpus:    %d programs, digest %s@." s.corpus_size
    s.corpus_digest;
  Fmt.pf ppf "  coverage:  %d edges (blind baseline at equal execs: %d)@."
    s.edges s.blind_edges;
  Fmt.pf ppf "  recovery memo: %d hits / %d misses@." s.memo_hits
    s.memo_misses;
  Fmt.pf ppf "  violations: %d@." (List.length s.found);
  List.iter
    (fun f ->
      Fmt.pf ppf "    %s: shrunk %d -> %d instrs@." f.f_oracle
        (Program.size f.f_original)
        (Program.size f.f_shrunk))
    s.found
