(* Outputs recorded for particular seeds, from the CLI entry points
   (`hippocrates sim --app pclht --variant repaired --mode chaos
   --scenarios 4 --seed N` and `hippocrates fuzz --execs 400 --seed N`).
   A run on one of these seeds must reproduce them exactly; other seeds
   are checked by the replays alone. *)

(* sim-chaos: digest of the fleet's first four scenarios. *)
let sim =
  [
    (1, "cf404b95dafded6b6f665f8e8d0e94c1");
    (2, "824d1a3060ad44d932c7206d47185120");
    (3, "e74d43d712ddd070a7de44c233c4627d");
    (4, "00daac036487b5380e5344f7494508f5");
    (5, "c885f5b21eb1d5c6466b0cc6a00d9fcb");
    (6, "63485388f203f7d3d88ffce311f2d658");
    (7, "5399ffa9473b5bc36c2cced9ffe0b7ba");
    (8, "a4acd6a3a059e7cb9ae56513a6faf203");
    (9, "ea4bfc0cbad0901efc6081c5426c1be6");
    (10, "fe143a912271ea31c33c82f9a517b423");
  ]

(* fuzz-campaign: campaign 0's corpus digest and edge count. *)
let fuzz =
  [
    (1, ("01803bf8b8f18d9eb872a667ba7401a7", 962));
    (2, ("a1de6577b30578e82e9fb9572abf1fe3", 1001));
    (3, ("dc944d47a0f4c34219ef001621835d85", 1034));
    (4, ("e8eeb3917e9b111f43a53991ee458cef", 1038));
    (5, ("0c92963745afea43182359540ac6f56e", 1078));
    (6, ("cf8d63157e860143ac9000e0167ab3fb", 1109));
    (7, ("4514977b5e377b5a3226d25ccb047763", 988));
    (8, ("f958be601d0f9677d54b25050f129110", 958));
    (9, ("a6573c633b27901d85dd0612d2a8992f", 975));
    (10, ("a55543d4050c5fe32f1cfc8901529774", 1008));
  ]

let sim_digest seed = List.assoc_opt seed sim
let fuzz seed = List.assoc_opt seed fuzz
