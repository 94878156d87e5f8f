(* Host-time spans recorded by the benchmark around its calls into each
   layer of the program.  With tracing off, [span] is a direct call: no
   clock read, no record.  With tracing on, every span keeps its name,
   parent, op id, duration and the minor-heap words allocated inside
   it; the records stay in memory and are summarised once, when the run
   ends.

   A layer's self time is its span's duration minus the time covered by
   its child spans.  Spans opened while no op is running (set-up work)
   carry op id -1 and never count towards op time. *)

type record = {
  name : string;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  op : int;  (** op id, -1 outside any op *)
  mutable dur : float;  (** seconds *)
  mutable words : float;  (** minor words allocated inside, children included *)
}

let enabled = ref false
let records : record array ref = ref [||]
let count = ref 0
let current = ref (-1)
let current_op = ref (-1)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let reset () =
  records := [||];
  count := 0;
  current := -1;
  current_op := -1

let push r =
  if !count = Array.length !records then begin
    let bigger = Array.make (max 1024 (2 * !count)) r in
    Array.blit !records 0 bigger 0 !count;
    records := bigger
  end;
  !records.(!count) <- r;
  incr count;
  !count - 1

let timed name f =
  let idx =
    push { name; parent = !current; op = !current_op; dur = 0.; words = 0. }
  in
  let parent = !current in
  current := idx;
  let finish t0 w0 =
    let t1 = now () and w1 = Gc.minor_words () in
    let r = !records.(idx) in
    r.dur <- t1 -. t0;
    r.words <- w1 -. w0;
    current := parent
  in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  match f () with
  | v ->
      finish t0 w0;
      v
  | exception e ->
      finish t0 w0;
      raise e

(** [span name f] runs [f], recording it as a span when tracing is on. *)
let span name f = if !enabled then timed name f else f ()

(** [op id f] runs one op of the workload; its span is named ["op"]. *)
let op id f =
  if not !enabled then f ()
  else begin
    current_op := id;
    Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> timed "op" f)
  end

(** The index the next span will get: read it just before [span] to
    name that span as a later [attach] parent. *)
let next () = !count

let children_time idx =
  let s = ref 0. in
  for i = idx + 1 to !count - 1 do
    if !records.(i).parent = idx then s := !s +. !records.(i).dur
  done;
  !s

(** Add a child interval known only by its length — a time the server
    reports, or the checker's share of a compile — under span
    [parent].  It is clamped to the parent's remaining self time, so
    self times never go negative. *)
let attach ~parent name dur =
  if !enabled && parent >= 0 then begin
    let p = !records.(parent) in
    let room = p.dur -. children_time parent in
    let dur = Float.max 0. (Float.min dur room) in
    ignore (push { name; parent; op = p.op; dur; words = 0. })
  end

type layer = {
  self_s : float;  (** self time inside ops *)
  self_words : float;  (** self allocation inside ops *)
}

type summary = {
  spans : int;  (** records *)
  ops : int;  (** op spans seen *)
  op_s : float;  (** summed duration of the op spans *)
  layers : (string, layer) Hashtbl.t;  (** by span name; "op" is the residue *)
}

let summarize () =
  let n = !count in
  let rs = !records in
  let child_s = Array.make n 0. and child_w = Array.make n 0. in
  for i = 0 to n - 1 do
    let p = rs.(i).parent in
    if p >= 0 then begin
      child_s.(p) <- child_s.(p) +. rs.(i).dur;
      child_w.(p) <- child_w.(p) +. rs.(i).words
    end
  done;
  let layers = Hashtbl.create 32 in
  let op_s = ref 0. and ops = ref 0 in
  for i = 0 to n - 1 do
    let r = rs.(i) in
    let self_s = r.dur -. child_s.(i) and self_w = r.words -. child_w.(i) in
    let in_op = r.op >= 0 in
    if in_op && String.equal r.name "op" then begin
      op_s := !op_s +. r.dur;
      incr ops
    end;
    if in_op then begin
      let prev =
        Option.value (Hashtbl.find_opt layers r.name) ~default:{ self_s = 0.; self_words = 0. }
      in
      Hashtbl.replace layers r.name
        { self_s = prev.self_s +. self_s; self_words = prev.self_words +. self_w }
    end
  done;
  { spans = n; ops = !ops; op_s = !op_s; layers }

(** Seconds one span costs the run — a record, two clock reads, two
    allocation counter reads — timed over a burst of empty spans.  Call
    after [summarize]: it discards the records. *)
let cost () =
  reset ();
  enabled := true;
  let n = 100_000 in
  let t0 = now () in
  for _ = 1 to n do
    span "calibrate" ignore
  done;
  let per_span = (now () -. t0) /. float_of_int n in
  enabled := false;
  reset ();
  per_span

let layer (s : summary) name =
  Option.value (Hashtbl.find_opt s.layers name) ~default:{ self_s = 0.; self_words = 0. }
