(* Tests for the serve subsystem: codec round-trips and rejection of
   damaged frames, handler/app-adapter semantics, and end-to-end
   in-process determinism across worker counts and domain widths. *)

open Hippo_serve
module App = Hippo_apps.App
module Hist = Hippo_perfmodel.Stats.Hist

(* ------------------------------------------------------------------ *)
(* Codec *)

let wire_string =
  QCheck.Gen.(string_size ~gen:printable (int_range 1 40))

let request_gen : Protocol.request QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun key value -> Protocol.Set { key; value })
          wire_string wire_string;
        map (fun key -> Protocol.Get { key }) wire_string;
        map (fun key -> Protocol.Del { key }) wire_string;
        map2
          (fun key len -> Protocol.Scan { key; len })
          wire_string (int_range 0 1000);
        return Protocol.Count;
        return Protocol.Stats;
      ])

let reply_gen : Protocol.reply QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        return Protocol.Ok_;
        map (fun v -> Protocol.Value v) wire_string;
        return Protocol.Not_found;
        map (fun d -> Protocol.Deleted d) bool;
        return Protocol.Unsupported;
        map (fun n -> Protocol.Count_is n) (int_range 0 1_000_000);
        map
          (fun ns ->
            let hist = Hist.create () in
            List.iter (Hist.record hist) ns;
            Protocol.Stats_are
              {
                Protocol.ops = List.length ns;
                kind_counts =
                  Array.init Protocol.nkinds (fun i ->
                      i * List.length ns);
                hist;
              })
          (list_size (int_range 0 50) (int_range 0 1_000_000));
        map (fun m -> Protocol.Err m) wire_string;
      ])

(* structural equality, except histograms compare by sparse form *)
let reply_equal (a : Protocol.reply) (b : Protocol.reply) =
  match (a, b) with
  | Protocol.Stats_are sa, Protocol.Stats_are sb ->
      sa.Protocol.ops = sb.Protocol.ops
      && sa.Protocol.kind_counts = sb.Protocol.kind_counts
      && Hist.buckets sa.Protocol.hist = Hist.buckets sb.Protocol.hist
  | _ -> a = b

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request encode/decode round-trip" ~count:500
    (QCheck.make request_gen) (fun req ->
      let frame = Protocol.encode_request req in
      match Protocol.decode_request frame ~pos:0 with
      | Ok (req', next) -> req' = req && next = String.length frame
      | Error _ -> false)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"reply encode/decode round-trip" ~count:500
    (QCheck.make reply_gen) (fun reply ->
      let frame = Protocol.encode_reply reply in
      match Protocol.decode_reply frame ~pos:0 with
      | Ok (reply', next) ->
          reply_equal reply' reply && next = String.length frame
      | Error _ -> false)

let prop_truncation_rejected =
  (* every strict prefix of a valid frame is Truncated, never Ok and
     never Malformed (a partial read must simply wait for more bytes) *)
  QCheck.Test.make ~name:"every strict prefix reports Truncated" ~count:200
    (QCheck.make request_gen) (fun req ->
      let frame = Protocol.encode_request req in
      List.for_all
        (fun n ->
          match Protocol.decode_request (String.sub frame 0 n) ~pos:0 with
          | Error Protocol.Truncated -> true
          | _ -> false)
        (List.init (String.length frame) Fun.id))

let test_oversized_rejected () =
  (* a length prefix beyond max_payload is rejected without waiting for
     the (absurd) body *)
  let b = Buffer.create 8 in
  let len = Protocol.max_payload + 1 in
  Buffer.add_char b (Char.chr ((len lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((len lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((len lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (len land 0xFF));
  (match Protocol.decode_request (Buffer.contents b) ~pos:0 with
  | Error (Protocol.Oversized n) -> Alcotest.(check int) "length" len n
  | _ -> Alcotest.fail "oversized frame accepted");
  match Protocol.encode_reply (Protocol.Value (String.make (Protocol.max_payload + 10) 'x')) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized encode accepted"

let test_malformed_rejected () =
  (* a complete frame with garbage inside is Malformed, not Truncated *)
  let bad_tag = "\x00\x00\x00\x01\x7f" in
  (match Protocol.decode_request bad_tag ~pos:0 with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "unknown tag accepted");
  (* declared payload longer than its fields *)
  let short_body = "\x00\x00\x00\x03\x02\x00\x05" in
  (match Protocol.decode_request short_body ~pos:0 with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "short body accepted");
  (* trailing junk inside the declared payload *)
  let get = Protocol.encode_request (Protocol.Get { key = "k" }) in
  let payload = String.sub get 4 (String.length get - 4) ^ "junk" in
  let n = String.length payload in
  let framed =
    Fmt.str "%c%c%c%c%s"
      (Char.chr ((n lsr 24) land 0xFF))
      (Char.chr ((n lsr 16) land 0xFF))
      (Char.chr ((n lsr 8) land 0xFF))
      (Char.chr (n land 0xFF))
      payload
  in
  match Protocol.decode_request framed ~pos:0 with
  | Error (Protocol.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing payload bytes accepted"

let test_streamed_frames () =
  (* several frames concatenated decode in sequence from moving offsets *)
  let reqs =
    [
      Protocol.Set { key = "a"; value = "1" };
      Protocol.Get { key = "a" };
      Protocol.Count;
    ]
  in
  let buf = String.concat "" (List.map Protocol.encode_request reqs) in
  let rec decode pos acc =
    if pos >= String.length buf then List.rev acc
    else
      match Protocol.decode_request buf ~pos with
      | Ok (req, next) -> decode next (req :: acc)
      | Error e -> Alcotest.failf "decode: %a" Protocol.pp_error e
  in
  Alcotest.(check bool) "all frames decode" true (decode 0 [] = reqs)

(* ------------------------------------------------------------------ *)
(* App adapter + handler *)

let small_app variant =
  match App.make App.Redis variant with
  | Ok app -> app
  | Error e -> Alcotest.failf "App.make: %s" e

let test_app_adapter_semantics () =
  let app = small_app App.Manual in
  let metrics = Metrics.create () in
  let rpc req = Handler.handle ~app ~metrics req in
  Alcotest.(check bool) "set" true
    (rpc (Protocol.Set { key = "alpha"; value = "one" }) = Protocol.Ok_);
  Alcotest.(check bool) "get hit" true
    (rpc (Protocol.Get { key = "alpha" }) = Protocol.Value "one");
  Alcotest.(check bool) "get miss" true
    (rpc (Protocol.Get { key = "beta" }) = Protocol.Not_found);
  Alcotest.(check bool) "scan unsupported" true
    (rpc (Protocol.Scan { key = "alpha"; len = 3 }) = Protocol.Unsupported);
  Alcotest.(check bool) "count" true (rpc Protocol.Count = Protocol.Count_is 1);
  Alcotest.(check bool) "del hit" true
    (rpc (Protocol.Del { key = "alpha" }) = Protocol.Deleted true);
  Alcotest.(check bool) "del miss" true
    (rpc (Protocol.Del { key = "alpha" }) = Protocol.Deleted false);
  (* an over-capacity key maps to Err, not a dead connection *)
  (match rpc (Protocol.Set { key = String.make 100 'k'; value = "v" }) with
  | Protocol.Err _ -> ()
  | _ -> Alcotest.fail "over-capacity key accepted");
  (* metrics counted every op, including the failed one *)
  Alcotest.(check int) "ops counted" 8 (Metrics.ops metrics);
  let stats = (Metrics.snapshot metrics : Protocol.server_stats) in
  Alcotest.(check int) "set count" 2
    stats.Protocol.kind_counts.(Protocol.kind_index Protocol.KSet);
  Alcotest.(check int) "hist count" 8 (Hist.count stats.Protocol.hist);
  match rpc Protocol.Stats with
  | Protocol.Stats_are s -> Alcotest.(check int) "stats ops" 8 s.Protocol.ops
  | _ -> Alcotest.fail "stats reply"

let test_pclht_adapter () =
  match App.make App.Pclht App.Manual with
  | Error e -> Alcotest.failf "pclht make: %s" e
  | Ok app ->
      let metrics = Metrics.create () in
      let rpc req = Handler.handle ~app ~metrics req in
      Alcotest.(check bool) "set" true
        (rpc (Protocol.Set { key = "k1"; value = "v1" }) = Protocol.Ok_);
      (* a word store: GET echoes the stored word, not the SET bytes *)
      (match rpc (Protocol.Get { key = "k1" }) with
      | Protocol.Value _ -> ()
      | _ -> Alcotest.fail "pclht get hit");
      Alcotest.(check bool) "miss" true
        (rpc (Protocol.Get { key = "nope" }) = Protocol.Not_found);
      Alcotest.(check bool) "count" true
        (rpc Protocol.Count = Protocol.Count_is 1);
      Alcotest.(check bool) "check" true (app.App.check ())

let test_pclht_flush_free_rejected () =
  match App.make App.Pclht App.Flush_free with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pclht flush-free accepted"

let test_handle_wire_codec_path () =
  let app = small_app App.Manual in
  let metrics = Metrics.create () in
  let frame =
    Handler.handle_wire ~app ~metrics
      (Protocol.encode_request (Protocol.Set { key = "x"; value = "y" }))
  in
  (match Protocol.decode_reply frame ~pos:0 with
  | Ok (Protocol.Ok_, _) -> ()
  | _ -> Alcotest.fail "wire set");
  (* garbage in, Err frame out — the connection stays decodable *)
  let err = Handler.handle_wire ~app ~metrics "\x00\x00\x00\x01\x7f" in
  match Protocol.decode_reply err ~pos:0 with
  | Ok (Protocol.Err _, _) -> ()
  | _ -> Alcotest.fail "wire error path"

(* ------------------------------------------------------------------ *)
(* In-process end-to-end determinism *)

let run_inproc ~pool ~variant ~workers =
  match
    Drive.run_inproc ~pool ~app:App.Redis ~variant
      ~workload:Hippo_ycsb.Workload.A ~records:120 ~ops:200 ~workers ~seed:42
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "run_inproc: %s" e

let deterministic_view (o : Drive.outcome) =
  Fmt.str "%a" Drive.pp_outcome o

let test_inproc_deterministic_across_jobs () =
  let at domains =
    Hippo_parallel.Pool.run ~domains (fun pool ->
        deterministic_view (run_inproc ~pool ~variant:App.Manual ~workers:4))
  in
  let j1 = at 1 and j2 = at 2 and j4 = at 4 in
  Alcotest.(check string) "jobs 1 = jobs 2" j1 j2;
  Alcotest.(check string) "jobs 2 = jobs 4" j2 j4

let test_inproc_manual_repaired_agree () =
  Hippo_parallel.Pool.run ~domains:2 (fun pool ->
      let manual = run_inproc ~pool ~variant:App.Manual ~workers:3 in
      let repaired = run_inproc ~pool ~variant:App.Repaired ~workers:3 in
      Alcotest.(check bool) "verdicts, count and digest agree" true
        (Drive.agrees manual repaired);
      Alcotest.(check bool) "app invariant holds" true
        (manual.Drive.check && repaired.Drive.check);
      Alcotest.(check int) "all records present" manual.Drive.final_records
        manual.Drive.count)

let test_inproc_workload_d_inserts () =
  (* workload D grows the store: final_records, count and the digest
     sweep must all track the inserts *)
  Hippo_parallel.Pool.run ~domains:2 (fun pool ->
      match
        Drive.run_inproc ~pool ~app:App.Redis ~variant:App.Manual
          ~workload:Hippo_ycsb.Workload.D ~records:100 ~ops:200 ~workers:2
          ~seed:7
      with
      | Error e -> Alcotest.failf "workload D: %s" e
      | Ok o ->
          Alcotest.(check bool) "inserts happened" true
            (o.Drive.final_records > o.Drive.records);
          Alcotest.(check int) "count tracks inserts" o.Drive.final_records
            o.Drive.count)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    ("oversized rejected", `Quick, test_oversized_rejected);
    ("malformed rejected", `Quick, test_malformed_rejected);
    ("streamed frames", `Quick, test_streamed_frames);
    ("app adapter semantics", `Quick, test_app_adapter_semantics);
    ("pclht adapter", `Quick, test_pclht_adapter);
    ("pclht flush-free rejected", `Quick, test_pclht_flush_free_rejected);
    ("handle_wire codec path", `Quick, test_handle_wire_codec_path);
    ("inproc deterministic across jobs", `Quick,
     test_inproc_deterministic_across_jobs);
    ("inproc manual/repaired agree", `Quick,
     test_inproc_manual_repaired_agree);
    ("inproc workload D inserts", `Quick, test_inproc_workload_d_inserts);
  ]
