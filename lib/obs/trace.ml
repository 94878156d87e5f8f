(* Trace sinks and exporters.

   A sink is just a callback; the simulator never sees how events are
   consumed. The in-memory collector preserves emission order, which is
   deterministic because each simulation runs single-threaded — the
   golden tests compare the rendered bytes across [-j] values to lock
   that down. *)

type level = Blocks | Full

type sink = Event.t -> unit

let collector () =
  let events = ref [] in
  let emit e = events := e :: !events in
  (emit, fun () -> List.rev !events)

(* ---------- compact deterministic text ---------- *)

let render_text ?(header = []) events =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "# %s: %s\n" k v))
    header;
  List.iter
    (fun e ->
      Buffer.add_string b (Event.to_line e);
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

(* first line where two rendered traces diverge, for readable test
   failures *)
let first_divergence a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | [], [] -> None
    | x :: _, [] -> Some (n, x, "<end of golden>")
    | [], y :: _ -> Some (n, "<end of trace>", y)
    | x :: xs, y :: ys -> if String.equal x y then go (n + 1) (xs, ys) else Some (n, x, y)
  in
  go 1 (la, lb)

(* ---------- Chrome trace-event JSON (Perfetto / chrome://tracing) ----------

   Block frames become duration ("X") events laid out one row (tid) per
   frame slot; instruction issues, token deliveries, mispredicts and
   cache misses become instant ("i") events. Cycles are reported as
   microseconds — Perfetto has no notion of cycles, and 1 cycle = 1 us
   keeps the timeline readable. *)

let chrome ~pid ~name events : Json.t list =
  let rows = ref [] in
  let int i = Json.Num (float_of_int i) in
  let item fields = rows := Json.Obj fields :: !rows in
  item
    [
      ("ph", Json.Str "M"); ("pid", int pid); ("name", Json.Str "process_name");
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ];
  (* open frames: seq -> (block, fid, dispatch cycle) *)
  let open_frames = Hashtbl.create 16 in
  let close_frame ~seq ~cycle ~phase ~extra =
    match Hashtbl.find_opt open_frames seq with
    | None -> ()
    | Some (block, fid, t0) ->
        Hashtbl.remove open_frames seq;
        item
          [
            ("ph", Json.Str "X"); ("pid", int pid); ("tid", int fid);
            ("ts", int t0); ("dur", int (max 1 (cycle - t0)));
            ("name", Json.Str block);
            ( "args",
              Json.Obj
                (("seq", int seq) :: ("end", Json.Str phase) :: extra) );
          ]
  in
  let instant ~cycle ~tid ~nm ~args =
    item
      ([
         ("ph", Json.Str "i"); ("s", Json.Str "t"); ("pid", int pid);
         ("tid", int tid); ("ts", int cycle); ("name", Json.Str nm);
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  List.iter
    (fun (e : Event.t) ->
      match e with
      | Event.Dispatch { cycle; block; seq; fid; _ } ->
          Hashtbl.replace open_frames seq (block, fid, cycle)
      | Event.Commit { cycle; seq; instrs; orphans; _ } ->
          close_frame ~seq ~cycle ~phase:"commit"
            ~extra:[ ("instrs", int instrs); ("orphans", int orphans) ]
      | Event.Squash { cycle; seq; reason; orphans; _ } ->
          close_frame ~seq ~cycle ~phase:reason
            ~extra:[ ("orphans", int orphans) ]
      | Event.Branch { cycle; block; seq; target; mispredict } ->
          if mispredict then
            instant ~cycle ~tid:90 ~nm:("mispredict " ^ block)
              ~args:[ ("seq", int seq); ("target", Json.Str target) ]
      | Event.Issue { cycle; block; seq; id; op; tile } ->
          instant ~cycle ~tid:(100 + tile) ~nm:op
            ~args:
              [ ("block", Json.Str block); ("seq", int seq); ("id", int id) ]
      | Event.Token { cycle; seq; dst; null; pred; _ } ->
          if null || pred then
            instant ~cycle ~tid:91
              ~nm:(if null then "null->" ^ dst else "pred->" ^ dst)
              ~args:[ ("seq", int seq) ]
      | Event.Cache { cycle; cache; write; hit } ->
          if not hit then
            instant ~cycle ~tid:92
              ~nm:(cache ^ (if write then " wr miss" else " rd miss"))
              ~args:[]
      | Event.Fetch _ | Event.Wakeup _ | Event.Read _ -> ())
    events;
  (* frames still open at the end of the trace (e.g. after a fault) *)
  let still_open =
    Hashtbl.fold (fun seq v acc -> (seq, v) :: acc) open_frames []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (seq, (_, _, t0)) ->
      close_frame ~seq ~cycle:(t0 + 1) ~phase:"open" ~extra:[])
    still_open;
  List.rev !rows

let chrome_to_string ~name events =
  Json.pretty (Json.Arr (chrome ~pid:0 ~name events))
