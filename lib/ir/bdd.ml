(* A small hash-consed BDD package: the predicate lattice underneath the
   polynomial-time block checker (lib/check).

   Formulas over the block's enumeration variables (see [Gate]) are kept
   as reduced ordered binary decision diagrams.  Conjunction,
   disjunction and negation are memoized per manager, so the checker's
   gating analysis costs a polynomial number of node operations instead
   of the 2^k path walk of the fuzz validator's enumerator.  Managers
   are per-block (created fresh for every analysis), which keeps the
   package safe to use from multiple domains at once: no global state.

   A node budget guards against pathological blow-ups; exceeding it
   raises [Budget], which callers must treat as "analysis inconclusive"
   (skip, never flag). *)

type node =
  | False
  | True
  | Node of { uid : int; var : int; lo : node; hi : node }

(* Every table is keyed on one int.  A unique-table key packs a node's
   variable and its children's uids, [uid_bits] bits each; an and/or
   cache key packs the operands' uids, smaller first; a negation cache
   key is the operand's uid. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* multiply, then fold the high bits down: the table indexes by the
     low bits, and the low bits of a key are one uid *)
  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)

type t = {
  unique : node Tbl.t;
  and_cache : node Tbl.t;
  or_cache : node Tbl.t;
  not_cache : node Tbl.t;
  budget : int;
  mutable next_uid : int;
}

exception Budget

let default_budget = 200_000
let uid_bits = 21

let create ?(budget = default_budget) () =
  (* uids run from 2 to [budget + 1] *)
  if budget + 1 >= 1 lsl uid_bits then
    invalid_arg "Bdd.create: budget too large for packed keys";
  {
    unique = Tbl.create 256;
    and_cache = Tbl.create 256;
    or_cache = Tbl.create 256;
    not_cache = Tbl.create 64;
    budget;
    next_uid = 2;
  }

let uid = function False -> 0 | True -> 1 | Node { uid; _ } -> uid
let pack a b = (a lsl uid_bits) lor b

(* structural sharing makes equality a uid comparison *)
let equal a b = uid a = uid b

let is_false n = equal n False
let is_true n = equal n True

let mk m var lo hi =
  if equal lo hi then lo
  else
    let key = pack (pack var (uid lo)) (uid hi) in
    match Tbl.find m.unique key with
    | n -> n
    | exception Not_found ->
        if m.next_uid - 2 >= m.budget then raise Budget;
        let n = Node { uid = m.next_uid; var; lo; hi } in
        m.next_uid <- m.next_uid + 1;
        Tbl.replace m.unique key n;
        n

let var m v = mk m v False True
let nvar m v = mk m v True False

let top_var = function
  | False | True -> max_int
  | Node { var; _ } -> var

let branches v = function
  | (False | True) as n -> (n, n)
  | Node { var; lo; hi; _ } as n -> if var = v then (lo, hi) else (n, n)

let rec conj m a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | _ when equal a b -> a
  | _ -> (
      let key = pack (min (uid a) (uid b)) (max (uid a) (uid b)) in
      match Tbl.find m.and_cache key with
      | n -> n
      | exception Not_found ->
          let v = min (top_var a) (top_var b) in
          let alo, ahi = branches v a and blo, bhi = branches v b in
          let n = mk m v (conj m alo blo) (conj m ahi bhi) in
          Tbl.replace m.and_cache key n;
          n)

let rec disj m a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | _ when equal a b -> a
  | _ -> (
      let key = pack (min (uid a) (uid b)) (max (uid a) (uid b)) in
      match Tbl.find m.or_cache key with
      | n -> n
      | exception Not_found ->
          let v = min (top_var a) (top_var b) in
          let alo, ahi = branches v a and blo, bhi = branches v b in
          let n = mk m v (disj m alo blo) (disj m ahi bhi) in
          Tbl.replace m.or_cache key n;
          n)

let rec neg m a =
  match a with
  | False -> True
  | True -> False
  | Node { uid = u; var; lo; hi } -> (
      match Tbl.find m.not_cache u with
      | n -> n
      | exception Not_found ->
          let n = mk m var (neg m lo) (neg m hi) in
          Tbl.replace m.not_cache u n;
          n)

let conj_list m = List.fold_left (conj m) True
let disj_list m = List.fold_left (disj m) False

(* one satisfying assignment, as (variable, value) pairs for the
   variables actually tested on the chosen path; callers default the
   rest to false.  Used to print an enumerator-style witness path. *)
let any_sat n =
  let rec go acc = function
    | False -> None
    | True -> Some (List.rev acc)
    | Node { var; lo; hi; _ } -> (
        match go ((var, false) :: acc) lo with
        | Some _ as r -> r
        | None -> go ((var, true) :: acc) hi)
  in
  go [] n

let sat n = not (is_false n)
