(* A dfpd client: one Unix-socket connection, blocking line-oriented
   I/O. Used by the tests, the serve benchmark and `fuzz --serve`;
   also a reference implementation of the protocol's client side.

   The connection is pipelined: [submit] (or [submit_batch]) fires a
   job without waiting, [await] blocks until that job's terminal
   response arrives, and terminal responses for *other* in-flight ids
   read along the way are parked in [pending] for their own [await].
   Completions may arrive in any order — the id matches them up.
   [run_job] is submit-then-await, the old lock-step pattern.

   One thread per connection: the pending table is unsynchronized by
   design. Open one client per thread for concurrent use. *)

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  next_id : int Atomic.t;
  pending : (string, Json.t) Hashtbl.t;
      (* terminal responses awaiting their [await] call, by id *)
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    next_id = Atomic.make 0;
    pending = Hashtbl.create 64;
  }

(* retry [connect] until the server's listener is up (fresh spawns) *)
let rec connect_retry ?(attempts = 100) ?(delay_s = 0.05) path =
  match connect path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when attempts > 1 ->
      Thread.delay delay_s;
      connect_retry ~attempts:(attempts - 1) ~delay_s path

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t = Printf.sprintf "c%d" (Atomic.fetch_and_add t.next_id 1)

let send_line t line =
  let buf = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length buf in
  let rec write off =
    if off < len then
      match Unix.write t.fd buf off (len - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
  in
  write 0

let send t (v : Json.t) = send_line t (Json.to_string v)

let recv_line t =
  match input_line t.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _) -> None

let recv t : (Json.t, string) result option =
  Option.map Json.parse (recv_line t)

(* one request, one response — for ping/stats/shutdown *)
let rpc t (v : Json.t) : (Json.t, string) result =
  send t v;
  match recv t with
  | Some r -> r
  | None -> Error "connection closed by server"

let response_type v =
  Option.value (Json.str_member "type" v) ~default:""

let is_terminal v =
  match response_type v with
  | "done" | "error" | "rejected" -> true
  | _ -> false

(* Fire [job] (an object WITHOUT an id; one is added) without waiting
   for any response; returns the id to [await] on. Any number of jobs
   may be in flight on the connection. *)
let submit t (job : (string * Json.t) list) : string =
  let id = fresh_id t in
  send t (Json.Obj (("id", Json.Str id) :: job));
  id

(* Fire many jobs in ONE wire frame ({"op":"batch","jobs":[...]}) —
   one write(2), one parse on the server, one flush of the verdicts.
   Returns the ids in job order. *)
let submit_batch t (jobs : (string * Json.t) list list) : string list =
  let tagged =
    List.map
      (fun job ->
        let id = fresh_id t in
        (id, Json.Obj (("id", Json.Str id) :: job)))
      jobs
  in
  send t
    (Json.Obj
       [
         ("op", Json.Str "batch");
         ("jobs", Json.Arr (List.map snd tagged));
       ]);
  List.map fst tagged

(* Block until [id]'s terminal response (done/error/rejected),
   whatever order completions arrive in. Streaming responses for this
   id (trace lines, metrics, accepted) go to [on_stream]; non-terminal
   responses carrying other ids go to [on_other] (default: dropped);
   terminal responses for other in-flight ids are parked for their own
   [await]. *)
let await ?(on_stream = fun _ -> ()) ?(on_other = fun _ -> ()) t (id : string)
    : (Json.t, string) result =
  match Hashtbl.find_opt t.pending id with
  | Some v ->
      Hashtbl.remove t.pending id;
      Ok v
  | None ->
      let rec loop () =
        match recv t with
        | None -> Error "connection closed by server"
        | Some (Error e) -> Error ("unparseable response: " ^ e)
        | Some (Ok v) -> (
            match Json.str_member "id" v with
            | Some i when String.equal i id ->
                if is_terminal v then Ok v
                else begin
                  on_stream v;
                  loop ()
                end
            | Some other when is_terminal v ->
                Hashtbl.replace t.pending other v;
                loop ()
            | Some _ | None ->
                on_other v;
                loop ())
      in
      loop ()

(* submit-then-await: the lock-step pattern *)
let run_job ?on_stream ?on_other t (job : (string * Json.t) list) :
    (Json.t, string) result =
  await ?on_stream ?on_other t (submit t job)

(* convenience builders for the two job kinds; [machine] is a preset
   name or a Machine.to_compact line *)
let machine_field machine =
  Option.to_list (Option.map (fun m -> ("machine", Json.Str m)) machine)

let workload_job ?(trace = false) ?(lint = false) ?machine ~workload ~config
    () =
  [
    ("workload", Json.Str workload);
    ("config", Json.Str config);
    ("trace", Json.Bool trace);
    ("lint", Json.Bool lint);
  ]
  @ machine_field machine

let source_job ?(trace = false) ?(lint = false) ?machine ?timeout_ms
    ?max_cycles ?fuel ~source ~config () =
  let opt k v = Option.to_list (Option.map (fun n -> (k, Json.Num (float_of_int n))) v) in
  [ ("source", Json.Str source); ("config", Json.Str config);
    ("trace", Json.Bool trace); ("lint", Json.Bool lint) ]
  @ machine_field machine
  @ opt "timeout_ms" timeout_ms
  @ opt "max_cycles" max_cycles
  @ opt "fuel" fuel

(* -- pre-encoded block jobs ---------------------------------------- *)

(* Compile a registry workload under the named config locally and
   encode the artifact for shipping.  [Experiment.compile] is the
   server's own compile, so an honest image produces a byte-identical
   run (and run_digest) to the equivalent workload job. *)
let precompile ~workload ~config () =
  match
    ( Edge_workloads.Registry.find workload,
      List.assoc_opt config Dfp.Config.all_configs )
  with
  | None, _ -> Error ("unknown workload: " ^ workload)
  | _, None -> Error ("unknown config: " ^ config)
  | Some w, Some c ->
      Result.bind (Edge_harness.Experiment.compile w c) Wire.encode_compiled

(* A job that ships a pre-encoded artifact (raw [precompile] bytes;
   base64 happens here) for the named registry workload: the server
   skips compilation and simulates the image, still verifying it
   against the workload's reference semantics. *)
let image_job ?(trace = false) ?machine ~workload ~config ~image () =
  [
    ("workload", Json.Str workload);
    ("config", Json.Str config);
    ("image", Json.Str (B64.encode image));
    ("trace", Json.Bool trace);
  ]
  @ machine_field machine
