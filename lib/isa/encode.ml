(* an opcode's code is its position in [Opcode.all] *)
let opcodes = Array.of_list Opcode.all

let codes : (Opcode.t, int) Hashtbl.t =
  let t = Hashtbl.create (2 * Array.length opcodes) in
  Array.iteri (fun c op -> Hashtbl.replace t op c) opcodes;
  t

let code_of_opcode op =
  match Hashtbl.find_opt codes op with
  | Some c -> c
  | None -> invalid_arg "Encode.code_of_opcode"

let opcode_of_code c =
  if c >= 0 && c < Array.length opcodes then Some opcodes.(c) else None

let pred_code = function
  | Instr.Unpredicated -> 0
  | Instr.If_false -> 2
  | Instr.If_true -> 3

let pred_of_code = function
  | 0 -> Ok Instr.Unpredicated
  | 2 -> Ok Instr.If_false
  | 3 -> Ok Instr.If_true
  | n -> Error (Printf.sprintf "invalid predicate field %d" n)

let words (i : Instr.t) =
  match i.opcode with Opcode.Geni -> 3 | Opcode.Mov4 -> 2 | _ -> 1

let imm_fits imm = imm >= -256L && imm <= 255L

(* A target field of 0 means "no target": slot 0 operand Left of
   instruction 0 is unusable as a real target, which we enforce by never
   allocating consumers at id 0 during code generation (id 0 is reserved
   for an unpredicated instruction with no incoming operands, or unused). *)
let encode_target = function
  | None -> Ok 0
  | Some (Target.To_instr { id; _ } as t) when id < 0 || id >= 128 ->
      Error (Format.asprintf "target %a out of range" Target.pp t)
  | Some (Target.To_write w as t) when w < 0 || w >= 32 ->
      Error (Format.asprintf "target %a out of range" Target.pp t)
  | Some t -> Ok (Target.encode t)

let decode_target v = if v = 0 then Ok None else
  match Target.decode v with
  | Some t -> Ok (Some t)
  | None -> Error (Printf.sprintf "invalid target field %d" v)

let xop_of (i : Instr.t) =
  if i.lsid >= 0 then i.lsid
  else if i.exit_idx >= 0 then i.exit_idx
  else 0

let header (i : Instr.t) ~imm9 ~t2 ~t1 =
  let open Int32 in
  let ( ||| ) = logor in
  let field v shift = shift_left (of_int (v land 0x1ff)) shift in
  shift_left (of_int (code_of_opcode i.opcode land 0x7f)) 25
  ||| shift_left (of_int (pred_code i.pred land 0x3)) 23
  ||| shift_left (of_int (xop_of i land 0x1f)) 18
  ||| field (match imm9 with Some v -> v land 0x1ff | None -> t2) 9
  ||| field t1 0

let encode (i : Instr.t) =
  let opc = i.opcode in
  if i.lsid > 31 then Error "lsid out of range"
  else if i.exit_idx > 31 then Error "exit index out of range"
  else if List.length i.targets > Opcode.max_targets opc then
    Error "too many targets"
  else
    match opc with
    | Opcode.Geni ->
        Result.map
          (fun t1 ->
            let hd = header i ~imm9:None ~t2:0 ~t1 in
            let lo = Int64.to_int32 i.imm in
            let hi = Int64.to_int32 (Int64.shift_right_logical i.imm 32) in
            [ hd; lo; hi ])
          (encode_target (List.nth_opt i.targets 0))
    | Opcode.Mov4 ->
        (* Mov4 packs four 7-bit instruction ids plus one shared operand
           slot across two words; all targets must use the same slot. *)
        let slot =
          match i.targets with
          | Target.To_instr { slot; _ } :: _ -> Ok slot
          | [] -> Ok Target.Left
          | Target.To_write _ :: _ -> Error "mov4 cannot target writes"
        in
        Result.bind slot (fun slot ->
            let ids =
              List.map
                (function
                  | Target.To_instr { id; slot = s }
                    when Target.slot_equal s slot ->
                      Ok id
                  | Target.To_instr _ -> Error "mov4 targets must share a slot"
                  | Target.To_write _ -> Error "mov4 cannot target writes")
                i.targets
            in
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | Ok x :: tl -> collect (x :: acc) tl
              | Error e :: _ -> Error e
            in
            Result.bind (collect [] ids) (fun ids ->
                let get n =
                  match List.nth_opt ids n with Some v -> v + 1 | None -> 0
                in
                if List.exists (fun v -> v > 127) ids then Error "mov4 id range"
                else
                  let slot_code =
                    match slot with
                    | Target.Left -> 0
                    | Target.Right -> 1
                    | Target.Pred -> 2
                  in
                  let open Int32 in
                  let ( ||| ) = logor in
                  let w =
                    shift_left (of_int (code_of_opcode opc land 0x7f)) 25
                    ||| shift_left (of_int (get 0 land 0xff)) 17
                    ||| shift_left (of_int (get 1 land 0xff)) 9
                  in
                  let w2 =
                    shift_left (of_int slot_code) 18
                    ||| shift_left (of_int (get 2 land 0xff)) 9
                    ||| of_int (get 3 land 0xff)
                  in
                  Ok [ w; w2 ]))
    | _ ->
        let has_imm = Opcode.has_immediate opc in
        if has_imm && not (imm_fits i.imm) then
          Error (Printf.sprintf "immediate %Ld does not fit 9 bits" i.imm)
        else
          Result.bind (encode_target (List.nth_opt i.targets 0)) (fun t1 ->
              Result.map
                (fun t2v ->
                  let imm9 =
                    if has_imm then Some (Int64.to_int i.imm) else None
                  in
                  [ header i ~imm9 ~t2:t2v ~t1 ])
                (encode_target (List.nth_opt i.targets 1)))

let decode ~id ws =
  match ws with
  | [] -> Error "empty word stream"
  | w :: rest -> (
      let geti shift mask = Int32.to_int (Int32.shift_right_logical w shift) land mask in
      let code = geti 25 0x7f in
      match opcode_of_code code with
      | None -> Error (Printf.sprintf "unknown opcode %d" code)
      | Some Opcode.Mov4 -> (
          (* Mov4 has its own packing: the predicate bits are reused for
             target ids, so it is parsed before the generic field split. *)
          match rest with
          | w2 :: rest' ->
              let geti' w shift mask =
                Int32.to_int (Int32.shift_right_logical w shift) land mask
              in
              let g v = if v = 0 then None else Some (v - 1) in
              let ids =
                List.filter_map g
                  [
                    geti' w 17 0xff;
                    geti' w 9 0xff;
                    geti' w2 9 0xff;
                    geti' w2 0 0xff;
                  ]
              in
              let slot =
                match geti' w2 18 0x3 with
                | 1 -> Target.Right
                | 2 -> Target.Pred
                | _ -> Target.Left
              in
              let targets =
                List.map (fun id -> Target.To_instr { id; slot }) ids
              in
              Ok (Instr.make ~id ~opcode:Opcode.Mov4 ~targets (), rest')
          | [] -> Error "truncated mov4")
      | Some opc -> (
          match pred_of_code (geti 23 0x3) with
          | Error e -> Error e
          | Ok pred -> (
              let xop = geti 18 0x1f in
              let f2 = geti 9 0x1ff in
              let f1 = geti 0 0x1ff in
              let lsid =
                match opc with Opcode.Ld _ | Opcode.St _ -> xop | _ -> -1
              in
              let exit_idx = match opc with Opcode.Bro -> xop | _ -> -1 in
              match opc with
              | Opcode.Geni -> (
                  match rest with
                  | lo :: hi :: rest' ->
                      let imm =
                        Int64.logor
                          (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)
                          (Int64.shift_left (Int64.of_int32 hi) 32)
                      in
                      Result.bind (decode_target f1) (fun t1 ->
                          let targets = Option.to_list t1 in
                          Ok
                            ( Instr.make ~id ~opcode:opc ~pred ~imm ~targets (),
                              rest' ))
                  | _ -> Error "truncated geni")
              | Opcode.Mov4 -> Error "unreachable: mov4 handled above"
              | _ ->
                  let has_imm = Opcode.has_immediate opc in
                  let imm =
                    if has_imm then
                      (* sign-extend 9 bits *)
                      let v = f2 in
                      let v = if v land 0x100 <> 0 then v - 512 else v in
                      Int64.of_int v
                    else 0L
                  in
                  Result.bind (decode_target f1) (fun t1 ->
                      let t2r =
                        if has_imm then Ok None else decode_target f2
                      in
                      Result.bind t2r (fun t2 ->
                          let targets =
                            Option.to_list t1 @ Option.to_list t2
                          in
                          Ok
                            ( Instr.make ~id ~opcode:opc ~pred ~imm ~targets
                                ~lsid ~exit_idx (),
                              rest ))))))

let encode_block_body instrs =
  let rec go acc i =
    if i >= Array.length instrs then Ok (List.rev acc)
    else
      match encode instrs.(i) with
      | Error e -> Error (Printf.sprintf "I%d: %s" i e)
      | Ok ws -> go (List.rev_append ws acc) (i + 1)
  in
  Result.map Array.of_list (go [] 0)

let decode_block_body words_arr =
  let rec go acc id ws =
    match ws with
    | [] -> Ok (Array.of_list (List.rev acc))
    | _ -> (
        match decode ~id ws with
        | Error e -> Error (Printf.sprintf "I%d: %s" id e)
        | Ok (i, rest) -> go (i :: acc) (id + 1) rest)
  in
  go [] 0 (Array.to_list words_arr)

(* The reserved-target rule, checked explicitly for a clear message,
   then the round trip itself: the first codec error, or each
   instruction that does not come back equal. *)
let roundtrip_errors instrs =
  let reserved =
    Array.to_list instrs
    |> List.concat_map (fun (i : Instr.t) ->
           List.filter_map
             (function
               | Target.To_instr { id = 0; slot = Target.Left } ->
                   Some
                     ( Some i.Instr.id,
                       Printf.sprintf
                         "I%d targets I0's left operand (encodes as no-target)"
                         i.Instr.id )
               | _ -> None)
             i.Instr.targets)
  in
  let trip =
    match encode_block_body instrs with
    | Error e -> [ (None, "encode: " ^ e) ]
    | Ok words -> (
        match decode_block_body words with
        | Error e -> [ (None, "decode: " ^ e) ]
        | Ok decoded when Array.length decoded <> Array.length instrs ->
            [
              ( None,
                Printf.sprintf "round trip changed instruction count: %d -> %d"
                  (Array.length instrs) (Array.length decoded) );
            ]
        | Ok decoded ->
            List.filter_map Fun.id
              (List.init (Array.length instrs) (fun idx ->
                   let orig = instrs.(idx) and dec = decoded.(idx) in
                   if Instr.equal orig dec then None
                   else
                     Some
                       ( Some idx,
                         Format.asprintf "I%d does not round-trip: %a <> %a" idx
                           Instr.pp orig Instr.pp dec ))))
  in
  reserved @ trip
