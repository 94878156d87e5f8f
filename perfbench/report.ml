(* Result line, statistics helpers and process probes shared by the
   workloads. *)

(* what a workload run hands back: op counts and every number it
   measured or counted, by metric name *)
type run = { attempted : int; failed : int; facts : (string * float) list }

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* JSON has no NaN or infinity; a metric that cannot be computed (an
   empty sample, a zero denominator) reads 0 *)
let finite v = if Float.is_finite v then v else 0.

(* [metrics] are (name, unit, value) *)
let print_result ~correct (r : run) metrics =
  let field (name, unit_, value) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite value) unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", " (List.map field metrics))

(* nearest-rank percentile, [p] in (0, 1] *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let median xs = percentile 0.5 xs

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let div a b = if b = 0. then 0. else a /. b

(* VmHWM (peak resident set) of a process, in MB *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* [f] repeated [n] times; the median of the wall times and the last
   result *)
let repeat_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    (match !last with Some (_, release) -> release () | None -> ());
    let t0 = Spans.now () in
    let v = f () in
    times := (Spans.now () -. t0) :: !times;
    last := Some v
  done;
  match !last with
  | Some (v, release) -> (median !times, v, release)
  | None -> invalid_arg "repeat_setup"

