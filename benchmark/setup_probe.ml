(* Set-up time measured from outside: launch a fresh process and time it
   until it has done a workload's set-up and exited. Probes run before a
   workload starts any domain (OCaml 5 forbids fork after domains). *)

let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

(* Time [runs] launches of this executable in probe mode for
   [workload], from spawn to exit; the probe's stdout goes to /dev/null.
   Returns the median seconds. *)
let self_probe ~self ~workload ~runs =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let launch () =
    let t0 = Measure.now () in
    let pid =
      Unix.create_process self
        [| self; "--probe"; workload |]
        null null Unix.stderr
    in
    let code = wait_exit pid in
    if code <> 0 then
      failwith (Printf.sprintf "set-up probe for %s exited %d" workload code);
    Measure.now () -. t0
  in
  let samples =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> List.init runs (fun _ -> launch ()))
  in
  Measure.median_of samples
