type env = (string * Ast.ty) list

let ( let* ) = Result.bind

let ty_equal (a : Ast.ty) (b : Ast.ty) = a = b

let ty_name t = Format.asprintf "%a" Ast.ty_pp t

let rec type_of_expr env (e : Ast.expr) =
  match e with
  | Ast.Int _ -> Ok Ast.Tint
  | Ast.Float _ -> Ok Ast.Tfloat
  | Ast.Var v -> (
      match List.assoc_opt v env with
      | Some t -> Ok t
      | None -> Error (Printf.sprintf "undeclared variable %s" v))
  | Ast.Index (v, idx) -> (
      let* it = type_of_expr env idx in
      if not (ty_equal it Ast.Tint) then
        Error (Printf.sprintf "index into %s must be int" v)
      else
        match List.assoc_opt v env with
        | Some (Ast.Tptr Ast.F64) -> Ok Ast.Tfloat
        | Some (Ast.Tptr _) -> Ok Ast.Tint
        | Some t ->
            Error (Printf.sprintf "%s has type %s, cannot index" v (ty_name t))
        | None -> Error (Printf.sprintf "undeclared variable %s" v))
  | Ast.Un (op, a) -> (
      let* ta = type_of_expr env a in
      match (op, ta) with
      | Ast.Neg, (Ast.Tint | Ast.Tfloat) -> Ok ta
      | Ast.Neg, Ast.Tptr _ -> Error "cannot negate a pointer"
      | (Ast.LNot | Ast.BNot), Ast.Tint -> Ok Ast.Tint
      | (Ast.LNot | Ast.BNot), _ -> Error "logical/bitwise not requires int"
      | Ast.Itof, Ast.Tint -> Ok Ast.Tfloat
      | Ast.Itof, _ -> Error "itof requires int"
      | Ast.Ftoi, Ast.Tfloat -> Ok Ast.Tint
      | Ast.Ftoi, _ -> Error "ftoi requires float")
  | Ast.Bin (op, a, b) -> (
      let* ta = type_of_expr env a in
      let* tb = type_of_expr env b in
      match op with
      | Ast.Add | Ast.Sub -> (
          match (ta, tb) with
          | Ast.Tint, Ast.Tint -> Ok Ast.Tint
          | Ast.Tfloat, Ast.Tfloat -> Ok Ast.Tfloat
          | Ast.Tptr e, Ast.Tint -> Ok (Ast.Tptr e)
          | Ast.Tint, Ast.Tptr e when op = Ast.Add -> Ok (Ast.Tptr e)
          | _ ->
              Error
                (Printf.sprintf "bad operand types %s and %s" (ty_name ta)
                   (ty_name tb)))
      | Ast.Mul | Ast.Div -> (
          match (ta, tb) with
          | Ast.Tint, Ast.Tint -> Ok Ast.Tint
          | Ast.Tfloat, Ast.Tfloat -> Ok Ast.Tfloat
          | _ ->
              Error
                (Printf.sprintf "bad operand types %s and %s" (ty_name ta)
                   (ty_name tb)))
      | Ast.Rem | Ast.BAnd | Ast.BOr | Ast.BXor | Ast.Shl | Ast.Shr ->
          if ty_equal ta Ast.Tint && ty_equal tb Ast.Tint then Ok Ast.Tint
          else Error "integer operator requires int operands"
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> (
          match (ta, tb) with
          | Ast.Tint, Ast.Tint | Ast.Tfloat, Ast.Tfloat -> Ok Ast.Tint
          | Ast.Tptr e1, Ast.Tptr e2 when e1 = e2 -> Ok Ast.Tint
          | _ ->
              Error
                (Printf.sprintf "cannot compare %s and %s" (ty_name ta)
                   (ty_name tb)))
      | Ast.LAnd | Ast.LOr ->
          if ty_equal ta Ast.Tint && ty_equal tb Ast.Tint then Ok Ast.Tint
          else Error "&&/|| require int operands")
  | Ast.Cond (c, a, b) ->
      let* tc = type_of_expr env c in
      if not (ty_equal tc Ast.Tint) then Error "condition must be int"
      else
        let* ta = type_of_expr env a in
        let* tb = type_of_expr env b in
        if ty_equal ta tb then Ok ta
        else Error "ternary arms must have the same type"

let rec check_stmts env ~in_loop ~ret stmts =
  match stmts with
  | [] -> Ok env
  | s :: tl -> (
      match s with
      | Ast.Decl (ty, name, init) ->
          if List.mem_assoc name env then
            Error (Printf.sprintf "redeclaration of %s" name)
          else
            let* () =
              match init with
              | None -> Ok ()
              | Some e ->
                  let* te = type_of_expr env e in
                  if ty_equal te ty then Ok ()
                  else
                    Error
                      (Printf.sprintf "initializer of %s has type %s, not %s"
                         name (ty_name te) (ty_name ty))
            in
            check_stmts ((name, ty) :: env) ~in_loop ~ret tl
      | Ast.Assign (name, e) -> (
          match List.assoc_opt name env with
          | None -> Error (Printf.sprintf "undeclared variable %s" name)
          | Some ty ->
              let* te = type_of_expr env e in
              if ty_equal te ty then check_stmts env ~in_loop ~ret tl
              else
                Error
                  (Printf.sprintf "assigning %s to %s of type %s" (ty_name te)
                     name (ty_name ty)))
      | Ast.Store (name, idx, v) -> (
          match List.assoc_opt name env with
          | Some (Ast.Tptr elem) ->
              let* ti = type_of_expr env idx in
              let* tv = type_of_expr env v in
              let want =
                match elem with Ast.F64 -> Ast.Tfloat | _ -> Ast.Tint
              in
              if not (ty_equal ti Ast.Tint) then Error "store index must be int"
              else if not (ty_equal tv want) then
                Error
                  (Printf.sprintf "storing %s into %s of element type %s"
                     (ty_name tv) name (ty_name want))
              else check_stmts env ~in_loop ~ret tl
          | Some t ->
              Error (Printf.sprintf "%s has type %s, cannot index" name (ty_name t))
          | None -> Error (Printf.sprintf "undeclared variable %s" name))
      | Ast.If (c, then_b, else_b) ->
          let* tc = type_of_expr env c in
          if not (ty_equal tc Ast.Tint) then Error "if condition must be int"
          else
            let* _ = check_stmts env ~in_loop ~ret then_b in
            let* _ = check_stmts env ~in_loop ~ret else_b in
            check_stmts env ~in_loop ~ret tl
      | Ast.While (c, body) ->
          let* tc = type_of_expr env c in
          if not (ty_equal tc Ast.Tint) then Error "while condition must be int"
          else
            let* _ = check_stmts env ~in_loop:true ~ret body in
            check_stmts env ~in_loop ~ret tl
      | Ast.For (init, cond, step, body) ->
          let* env' =
            match init with
            | None -> Ok env
            | Some s -> check_stmts env ~in_loop ~ret [ s ]
          in
          let* () =
            match cond with
            | None -> Ok ()
            | Some c ->
                let* tc = type_of_expr env' c in
                if ty_equal tc Ast.Tint then Ok ()
                else Error "for condition must be int"
          in
          let* _ =
            match step with
            | None -> Ok env'
            | Some s -> check_stmts env' ~in_loop:true ~ret [ s ]
          in
          let* _ = check_stmts env' ~in_loop:true ~ret body in
          check_stmts env ~in_loop ~ret tl
      | Ast.Break | Ast.Continue ->
          if in_loop then check_stmts env ~in_loop ~ret tl
          else Error "break/continue outside loop"
      | Ast.Return None -> check_stmts env ~in_loop ~ret tl
      | Ast.Return (Some e) -> (
          let* te = type_of_expr env e in
          match !ret with
          | None ->
              ret := Some te;
              check_stmts env ~in_loop ~ret tl
          | Some t ->
              if ty_equal t te then check_stmts env ~in_loop ~ret tl
              else Error "inconsistent return types"))

let check_kernel (k : Ast.kernel) =
  let env = List.map (fun p -> (p.Ast.pname, p.Ast.pty)) k.Ast.params in
  let rec dup = function
    | [] -> None
    | (n, _) :: tl -> if List.mem_assoc n tl then Some n else dup tl
  in
  match dup env with
  | Some n -> Error (Printf.sprintf "duplicate parameter %s" n)
  | None ->
      let ret = ref None in
      let* _ = check_stmts env ~in_loop:false ~ret k.Ast.body in
      Ok ()
