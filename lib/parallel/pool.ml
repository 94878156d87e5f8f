(* A one-shot parallel map. The caller and [lanes - 1] spawned domains
   each claim the next unclaimed index from one atomic counter, so a
   lane that drew cheap elements simply claims more of them; nothing
   outlives the call. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let run ?jobs f xs =
  let jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if jobs = 1 || n <= 1 then List.map f xs
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let rec lane () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        out.(i) <-
          Some
            (try Ok (f arr.(i))
             with e -> Error (e, Printexc.get_raw_backtrace ()));
        lane ()
      end
    in
    let domains = List.init (min jobs n - 1) (fun _ -> Domain.spawn lane) in
    lane ();
    (* joining publishes every lane's writes to [out] *)
    List.iter Domain.join domains;
    Array.to_list out
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end
