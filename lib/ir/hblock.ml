type guard = { gpol : bool; gpreds : Temp.t list }

type hop =
  | Op of Tac.instr
  | Sand of { dst : Temp.t; a : Temp.t; b : Temp.t }
  | Null_write of Temp.t
  | Null_store of int
type hinstr = { hop : hop; guard : guard option }
type hexit = { eguard : guard option; etarget : Label.t option }

type t = {
  hname : Label.t;
  mutable body : hinstr list;
  mutable hexits : hexit list;
  mutable houts : (Temp.t * Temp.t) list;
}

let guard_equal a b =
  match (a, b) with
  | None, None -> true
  | Some g1, Some g2 ->
      g1.gpol = g2.gpol
      && List.length g1.gpreds = List.length g2.gpreds
      && List.for_all2 Temp.equal g1.gpreds g2.gpreds
  | None, Some _ | Some _, None -> false

let guard_uses = function None -> [] | Some g -> g.gpreds
let singleton p pol = { gpol = pol; gpreds = [ p ] }

let hop_def = function
  | Op i -> Tac.def i
  | Sand { dst; _ } -> Some dst
  | Null_write _ | Null_store _ -> None

let data_uses hi =
  match hi.hop with
  | Op i -> Tac.uses i
  | Sand { a; b; _ } -> [ a; b ]
  | Null_write _ | Null_store _ -> []

let hop_uses hi = data_uses hi @ guard_uses hi.guard

let defs t =
  List.fold_left
    (fun acc hi ->
      match hop_def hi.hop with
      | Some d -> Temp.Set.add d acc
      | None -> acc)
    Temp.Set.empty t.body

(* Store indices are assigned positionally: the i-th [Store] in the body
   has index i; [Null_store] refers to those indices. *)
let store_count t =
  List.length
    (List.filter
       (fun hi ->
         match hi.hop with
         | Op (Tac.Store _) -> true
         | Op
             ( Tac.Bin _ | Tac.Fbin _ | Tac.Cmp _ | Tac.Un _ | Tac.Load _
             | Tac.Phi _ )
         | Sand _ | Null_write _ | Null_store _ ->
             false)
       t.body)

let predicated_count t =
  List.length (List.filter (fun hi -> hi.guard <> None) t.body)

let def_sites t =
  let m = ref Temp.Map.empty in
  List.iteri
    (fun i hi ->
      match hop_def hi.hop with
      | None -> ()
      | Some d ->
          let l = Option.value ~default:[] (Temp.Map.find_opt d !m) in
          m := Temp.Map.add d (l @ [ i ]) !m)
    t.body;
  !m

let pp_guard ppf = function
  | None -> ()
  | Some g ->
      Format.fprintf ppf "_%c<%a>"
        (if g.gpol then 't' else 'f')
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Temp.pp)
        g.gpreds

let pp_hinstr ppf hi =
  (match hi.hop with
  | Op i -> Tac.pp_instr ppf i
  | Sand { dst; a; b } ->
      Format.fprintf ppf "%a = sand %a, %a" Temp.pp dst Temp.pp a Temp.pp b
  | Null_write tmp -> Format.fprintf ppf "nullw %a" Temp.pp tmp
  | Null_store i -> Format.fprintf ppf "nulls @%d" i);
  pp_guard ppf hi.guard

let pp ppf t =
  Format.fprintf ppf "@[<v>hyperblock %a@," Label.pp t.hname;
  List.iter (fun hi -> Format.fprintf ppf "  %a@," pp_hinstr hi) t.body;
  List.iter
    (fun e ->
      Format.fprintf ppf "  exit%a -> %s@," pp_guard e.eguard
        (match e.etarget with Some l -> l | None -> "@halt"))
    t.hexits;
  Format.fprintf ppf "@]"
