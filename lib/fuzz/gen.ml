(* Seeded, size-parameterized generator of typed kernels for differential
   fuzzing.

   Programs are closed over a fixed memory layout: two int arrays A and B
   of 64 elements at fixed addresses, plus two scalar int parameters.
   Indices are masked to stay in bounds; divisors are forced non-zero;
   for loops have small constant bounds and while loops carry a bounded
   counter conjoined into their condition. Every generated program
   therefore terminates without faulting, and the reference interpreter,
   the functional simulator and the cycle simulator must agree exactly on
   the return value, the final memory image and the committed-store
   count.

   This is a superset of the original test/support generator: deeper
   control nesting, while loops, short-circuit condition chains and
   pointer-argument swapping are all in the grammar. Generation is
   deterministic per seed ([Random.State.make [| seed |]]), so any
   failure is reproducible from its (seed, size) pair alone. *)

module A = Edge_lang.Ast

(* the kernel convention is Tracekit's *)
let array_len = Edge_harness.Tracekit.array_len

type loop_ctx = Top | In_for | In_while

type env = {
  mutable vars : string list;  (* in-scope int variables *)
  mutable protected : string list;  (* induction variables: never reassigned *)
  mutable depth : int;  (* control-structure nesting *)
  mutable fresh : int;  (* monotonic name counter *)
  st : Random.State.t;
}

let max_depth = 3
let rint env n = Random.State.int env.st n
let rbool env = Random.State.bool env.st
let pick env l = List.nth l (rint env (List.length l))
let gen_const env = Int64.of_int (rint env 201 - 100)

let fresh_name env prefix =
  let n = env.fresh in
  env.fresh <- n + 1;
  Printf.sprintf "%s%d" prefix n

(* expression of int type over in-scope vars *)
let rec gen_expr env depth : A.expr =
  if depth <= 0 then gen_leaf env
  else
    match rint env 10 with
    | 0 | 1 -> gen_leaf env
    | 2 ->
        let op = pick env [ A.Add; A.Sub; A.Mul; A.BAnd; A.BOr; A.BXor ] in
        A.Bin (op, gen_expr env (depth - 1), gen_expr env (depth - 1))
    | 3 ->
        (* division with a guaranteed non-zero divisor *)
        let d = gen_expr env (depth - 1) in
        let nz = A.Bin (A.BOr, d, A.Int 1L) in
        A.Bin (pick env [ A.Div; A.Rem ], gen_expr env (depth - 1), nz)
    | 4 ->
        let op = pick env [ A.Lt; A.Le; A.Gt; A.Ge; A.Eq; A.Ne ] in
        A.Bin (op, gen_expr env (depth - 1), gen_expr env (depth - 1))
    | 5 -> gen_cond env (min 2 (depth - 1))
    | 6 -> A.Un (pick env [ A.Neg; A.BNot; A.LNot ], gen_expr env (depth - 1))
    | 7 ->
        (* bounded shift *)
        let amt = A.Int (Int64.of_int (rint env 8)) in
        A.Bin (pick env [ A.Shl; A.Shr ], gen_expr env (depth - 1), amt)
    | 8 ->
        let arr = pick env [ "A"; "B" ] in
        A.Index (arr, masked_index env (depth - 1))
    | _ ->
        A.Cond
          (gen_cond env 1, gen_expr env (depth - 1), gen_expr env (depth - 1))

and gen_leaf env =
  match rint env 3 with
  | 0 -> A.Int (gen_const env)
  | _ -> (
      match env.vars with
      | [] -> A.Int (gen_const env)
      | vs -> A.Var (pick env vs))

and masked_index env depth =
  A.Bin (A.BAnd, gen_expr env depth, A.Int (Int64.of_int (array_len - 1)))

(* boolean-shaped expression: short-circuit chains over comparisons, the
   shape the sand conversion (Section 7) and predicate-AND chains
   (Figure 3a) care about *)
and gen_cond env depth : A.expr =
  if depth <= 0 then
    let op = pick env [ A.Lt; A.Le; A.Gt; A.Ge; A.Eq; A.Ne ] in
    A.Bin (op, gen_expr env 1, gen_expr env 1)
  else
    match rint env 5 with
    | 0 | 1 ->
        A.Bin (A.LAnd, gen_cond env (depth - 1), gen_cond env (depth - 1))
    | 2 -> A.Bin (A.LOr, gen_cond env (depth - 1), gen_cond env (depth - 1))
    | 3 -> A.Un (A.LNot, gen_cond env (depth - 1))
    | _ -> gen_cond env 0

let rec gen_stmts env budget ~loop : A.stmt list =
  if budget <= 0 then []
  else
    let s, cost = gen_stmt env budget ~loop in
    s :: gen_stmts env (budget - cost) ~loop

and gen_stmt env budget ~loop =
  let choice = rint env 13 in
  match choice with
  | 0 | 1 when env.depth < max_depth && budget > 4 ->
      (* if/else; inner declarations go out of scope afterwards *)
      env.depth <- env.depth + 1;
      let saved = env.vars in
      let c = gen_cond env (1 + rint env 2) in
      let t = gen_stmts env (budget / 3) ~loop in
      env.vars <- saved;
      let e = if rbool env then gen_stmts env (budget / 3) ~loop else [] in
      env.vars <- saved;
      env.depth <- env.depth - 1;
      (A.If (c, t, e), 3 + List.length t + List.length e)
  | 2 when env.depth < max_depth && budget > 6 ->
      (* bounded for loop wrapped so the induction variable stays local *)
      env.depth <- env.depth + 1;
      let saved = env.vars in
      let iv = fresh_name env "i" in
      env.vars <- iv :: env.vars;
      env.protected <- iv :: env.protected;
      let bound = 2 + rint env 9 in
      let body = gen_stmts env (budget / 3) ~loop:In_for in
      env.vars <- saved;
      env.protected <-
        List.filter (fun v -> not (String.equal v iv)) env.protected;
      env.depth <- env.depth - 1;
      ( A.If
          ( A.Int 1L,
            [
              A.Decl (A.Tint, iv, Some (A.Int 0L));
              A.For
                ( Some (A.Assign (iv, A.Int 0L)),
                  Some (A.Bin (A.Lt, A.Var iv, A.Int (Int64.of_int bound))),
                  Some (A.Assign (iv, A.Bin (A.Add, A.Var iv, A.Int 1L))),
                  body );
            ],
            [] ),
        4 + List.length body )
  | 3 when env.depth < max_depth && budget > 6 ->
      (* bounded while loop: a protected counter is conjoined into the
         condition and incremented as the last body statement, so the
         loop terminates no matter what the generated condition does.
         [continue] is forbidden inside (it would skip the increment). *)
      env.depth <- env.depth + 1;
      let saved = env.vars in
      let iv = fresh_name env "w" in
      env.vars <- iv :: env.vars;
      env.protected <- iv :: env.protected;
      let bound = 2 + rint env 9 in
      let body = gen_stmts env (budget / 3) ~loop:In_while in
      env.vars <- saved;
      env.protected <-
        List.filter (fun v -> not (String.equal v iv)) env.protected;
      env.depth <- env.depth - 1;
      let cond =
        A.Bin
          ( A.LAnd,
            A.Bin (A.Lt, A.Var iv, A.Int (Int64.of_int bound)),
            if rbool env then gen_cond env 1 else A.Int 1L )
      in
      ( A.If
          ( A.Int 1L,
            [
              A.Decl (A.Tint, iv, Some (A.Int 0L));
              A.While
                (cond, body @ [ A.Assign (iv, A.Bin (A.Add, A.Var iv, A.Int 1L)) ]);
            ],
            [] ),
        5 + List.length body )
  | 4 when budget > 2 ->
      let arr = pick env [ "A"; "B" ] in
      (A.Store (arr, masked_index env 1, gen_expr env 2), 2)
  | 5 ->
      let name = fresh_name env "v" in
      let s = A.Decl (A.Tint, name, Some (gen_expr env 2)) in
      env.vars <- name :: env.vars;
      (s, 1)
  | 6 | 7 | 8
    when List.exists (fun v -> not (List.mem v env.protected)) env.vars ->
      let assignable =
        List.filter (fun v -> not (List.mem v env.protected)) env.vars
      in
      (A.Assign (pick env assignable, gen_expr env 2), 1)
  | 9 when loop <> Top && rbool env ->
      (A.If (gen_cond env 1, [ A.Break ], []), 2)
  | 10 when loop = In_for && rbool env ->
      (A.If (gen_cond env 1, [ A.Continue ], []), 2)
  | _ ->
      let name = fresh_name env "v" in
      let s = A.Decl (A.Tint, name, Some (gen_expr env 1)) in
      env.vars <- name :: env.vars;
      (s, 1)

let gen_kernel env ~size =
  let body = gen_stmts env size ~loop:Top in
  let ret =
    A.Return
      (Some
         (match env.vars with
         | [] -> A.Int 0L
         | vs ->
             List.fold_left
               (fun acc v -> A.Bin (A.Add, acc, A.Var v))
               (A.Var (List.hd vs))
               (List.tl vs)))
  in
  {
    A.kname = "rand";
    params =
      [
        { A.pname = "x"; pty = A.Tint };
        { A.pname = "y"; pty = A.Tint };
        { A.pname = "A"; pty = A.Tptr A.I64 };
        { A.pname = "B"; pty = A.Tptr A.I64 };
      ];
    body = body @ [ ret ];
  }

let generate ~seed ~size =
  let env =
    {
      vars = [ "x"; "y" ];
      protected = [];
      depth = 0;
      fresh = 0;
      st = Random.State.make [| seed; 0x5eed |];
    }
  in
  gen_kernel env ~size

(* the deterministic size schedule used by soak/fuzz campaigns *)
let size_for ~min_size ~max_size i =
  let span = max 1 (max_size - min_size + 1) in
  min_size + (i mod span)

let default_mem = Edge_harness.Tracekit.default_mem
