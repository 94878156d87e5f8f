(* The timed loop shared by the single-domain workloads: every op runs
   once, in order, with spans on when the run is traced.
   [before_traced i] runs just before op [i] of a traced run, outside
   its span and with spans off. *)

type 'r outcome = { results : ('r, string) result array; window_s : float }

let guard f =
  match f () with
  | v -> v
  | exception e -> Error ("exception: " ^ Printexc.to_string e)

let run ?(before_traced = fun _ -> ()) ~trace (exec : int -> ('r, string) result)
    n : 'r outcome =
  Spans.reset ();
  let t0 = Spans.now () in
  let results =
    Array.init n (fun i ->
        if trace then begin
          Spans.enabled := false;
          before_traced i;
          Spans.enabled := true
        end;
        guard (fun () -> Spans.op i (fun () -> exec i)))
  in
  Spans.enabled := false;
  { results; window_s = Spans.now () -. t0 }

let failures names (o : _ outcome) =
  let n = ref 0 in
  Array.iteri
    (fun i -> function
      | Ok _ -> ()
      | Error e ->
          incr n;
          Report.log "FAILED %s: %s" (names i) e)
    o.results;
  !n
