module Hb = Edge_ir.Hblock
module Tac = Edge_ir.Tac
module Temp = Edge_ir.Temp
module Opcode = Edge_isa.Opcode

type chain = { links : Temp.t list (* p_1 .. p_n, n >= 2 *) }

let rec find_chain body def_site guards_ok p acc =
  (* walk forward: find a test guarded {true;[p]} *)
  let next =
    List.find_map
      (fun hi ->
        match (hi.Hb.guard, hi.Hb.hop) with
        | Some { Hb.gpol = true; gpreds = [ q ] }, Hb.Op (Tac.Cmp { dst; _ })
          when Temp.equal q p && guards_ok dst ->
            Some dst
        | _ -> None)
      body
  in
  ignore def_site;
  match next with
  | Some dst -> find_chain body def_site guards_ok dst (dst :: acc)
  | None -> List.rev acc

let convert_chains (h : Hb.t) ~gen =
  let body = h.Hb.body in
  let def_sites = Hb.def_sites h in
  let barr = Array.of_list body in
  (* predicates used as data anywhere disqualify their chains *)
  let used_as_data =
    List.fold_left
      (fun acc hi ->
        List.fold_left (fun a t -> Temp.Set.add t a) acc (Hb.data_uses hi))
      Temp.Set.empty body
  in
  (* every guard mentioning t must be singleton *)
  let singleton_everywhere t =
    let ok g =
      match g with
      | Some { Hb.gpreds; _ } when List.exists (Temp.equal t) gpreds ->
          List.length gpreds = 1
      | _ -> true
    in
    List.for_all (fun hi -> ok hi.Hb.guard) body
    && List.for_all (fun e -> ok e.Hb.eguard) h.Hb.hexits
  in
  let single_def t =
    match Temp.Map.find_opt t def_sites with Some [ i ] -> Some i | _ -> None
  in
  let is_test t =
    match single_def t with
    | Some i -> (
        match barr.(i).Hb.hop with
        | Hb.Op (Tac.Cmp _) -> true
        | Hb.Op _ | Hb.Sand _ | Hb.Null_write _ | Hb.Null_store _ -> false)
    | None -> false
  in
  let guards_ok t =
    is_test t
    && (not (Temp.Set.mem t used_as_data))
    && singleton_everywhere t
  in
  (* transitive data producers of [t]'s defining test must be guarded only
     by predicates in [allowed] (with true polarity) or unguarded *)
  let producers_guarded_by allowed t =
    let rec walk seen temp =
      if Temp.Set.mem temp seen then true
      else
        match single_def temp with
        | None -> true (* live-in or constant *)
        | Some i ->
            let hi = barr.(i) in
            let guard_fine =
              match hi.Hb.guard with
              | None -> true
              | Some { Hb.gpol = true; gpreds = [ q ] } ->
                  List.exists (Temp.equal q) allowed
              | Some _ -> false
            in
            guard_fine
            && List.for_all (walk (Temp.Set.add temp seen)) (Hb.data_uses hi)
        in
    match single_def t with
    | None -> false
    | Some i -> List.for_all (walk Temp.Set.empty) (Hb.data_uses barr.(i))
  in
  (* chain roots: unpredicated, always-firing tests *)
  let roots =
    List.filter_map
      (fun hi ->
        match (hi.Hb.guard, hi.Hb.hop) with
        | None, Hb.Op (Tac.Cmp { dst; _ })
          when guards_ok dst && producers_guarded_by [] dst ->
            Some dst
        | _ -> None)
      body
  in
  (* False-consumers of a non-head link need a synthesized complement
     test e = sand(prev, !t). For float comparisons no such complement
     exists — NaN compares false under both a cond and its negation, so
     the sand pair (prefix ∧ t, prefix ∧ ¬t) would leave the block with
     no firing branch. (If_false predication on the original test, which
     the unconverted encoding uses, has no such hole.) *)
  let has_false_consumer t =
    let is_false_guard g =
      match g with
      | Some { Hb.gpol = false; gpreds = [ q ] } -> Temp.equal q t
      | _ -> false
    in
    List.exists (fun hi -> is_false_guard hi.Hb.guard) body
    || List.exists (fun e -> is_false_guard e.Hb.eguard) h.Hb.hexits
  in
  let complement_safe links =
    List.for_all
      (fun p ->
        (not (has_false_consumer p))
        ||
        match single_def p with
        | Some i -> (
            match barr.(i).Hb.hop with
            | Hb.Op (Tac.Cmp { fp; _ }) -> not fp
            | _ -> false)
        | None -> false)
      (match links with [] -> [] | _ :: tl -> tl)
  in
  let chains =
    List.filter_map
      (fun root ->
        let links = find_chain body def_sites guards_ok root [ root ] in
        (* verify operand-guarding along the chain *)
        let rec verify allowed = function
          | [] -> true
          | p :: rest ->
              producers_guarded_by allowed p && verify (p :: allowed) rest
        in
        if List.length links >= 3 && verify [] links && complement_safe links
        then Some { links }
        else None)
      roots
  in
  if chains = [] then 0
  else begin
    let converted = ref 0 in
    List.iter
      (fun { links } ->
        incr converted;
        (* s_1 = p_1; s_k = sand(s_{k-1}, t_k) *)
        let conj : (Temp.t, Temp.t) Hashtbl.t = Hashtbl.create 8 in
        let excl : (Temp.t, Temp.t) Hashtbl.t = Hashtbl.create 8 in
        let new_instrs = ref [] in
        let false_consumers = Hashtbl.create 8 in
        let note_false t = Hashtbl.replace false_consumers t () in
        List.iter
          (fun hi ->
            match hi.Hb.guard with
            | Some { Hb.gpol = false; gpreds = [ q ] }
              when List.exists (Temp.equal q) links ->
                note_false q
            | _ -> ())
          h.Hb.body;
        List.iter
          (fun e ->
            match e.Hb.eguard with
            | Some { Hb.gpol = false; gpreds = [ q ] }
              when List.exists (Temp.equal q) links ->
                note_false q
            | _ -> ())
          h.Hb.hexits;
        let prev = ref (List.hd links) in
        Hashtbl.replace conj (List.hd links) (List.hd links);
        List.iteri
          (fun k p ->
            if k > 0 then begin
              (* unguard the test *)
              let s = Temp.Gen.fresh gen in
              new_instrs :=
                { Hb.hop = Hb.Sand { dst = s; a = !prev; b = p }; guard = None }
                :: !new_instrs;
              Hashtbl.replace conj p s;
              (* exit predicate for false consumers: e = sand(prev, !t) *)
              if Hashtbl.mem false_consumers p then begin
                match single_def p with
                | Some di -> (
                    match barr.(di).Hb.hop with
                    | Hb.Op (Tac.Cmp c) ->
                        let tinv = Temp.Gen.fresh gen in
                        let e = Temp.Gen.fresh gen in
                        new_instrs :=
                          {
                            Hb.hop =
                              Hb.Op
                                (Tac.Cmp { c with dst = tinv; cond = Opcode.negate_cond c.cond });
                            guard = None;
                          }
                          :: {
                               Hb.hop = Hb.Sand { dst = e; a = !prev; b = tinv };
                               guard = None;
                             }
                          :: !new_instrs;
                        Hashtbl.replace excl p e
                    | _ -> assert false)
                | None -> assert false
              end;
              prev := s
            end)
          links;
        (* rewrite guards: true-consumers of p_k -> (conj_k, true);
           false-consumers -> (excl_k, true); unguard the chain tests *)
        let in_links q = List.exists (Temp.equal q) links in
        let rewrite_guard g =
          match g with
          | Some { Hb.gpol = true; gpreds = [ q ] } when in_links q ->
              Some (Hb.singleton (Hashtbl.find conj q) true)
          | Some { Hb.gpol = false; gpreds = [ q ] }
            when in_links q && (not (Temp.equal q (List.hd links))) ->
              Some (Hb.singleton (Hashtbl.find excl q) true)
          | g -> g
        in
        h.Hb.body <-
          List.map
            (fun hi ->
              match (Hb.hop_def hi.Hb.hop, hi.Hb.guard) with
              | Some d, Some { Hb.gpol = true; gpreds = [ q ] }
                when in_links d && in_links q ->
                  (* the chained test itself: drop its guard *)
                  { hi with Hb.guard = None }
              | _ -> { hi with Hb.guard = rewrite_guard hi.Hb.guard })
            h.Hb.body;
        h.Hb.body <- h.Hb.body @ List.rev !new_instrs;
        h.Hb.hexits <-
          List.map
            (fun e -> { e with Hb.eguard = rewrite_guard e.Hb.eguard })
            h.Hb.hexits)
      chains;
    !converted
  end

let run ?m h ~gen =
  let n = convert_chains h ~gen in
  (match m with
  | Some m -> Edge_obs.Metrics.incr ~by:n m "pass.sand.chains_converted"
  | None -> ());
  n
