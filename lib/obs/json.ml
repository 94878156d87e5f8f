(* The repository's one JSON codec: a value type, a strict RFC 8259
   parser, the one-line wire printer of the dfpd protocol, and the
   indented form BENCH files and Chrome trace exports are written in.
   The repo deliberately has no JSON dependency, and every JSON user
   already links lib/obs, so the codec lives here.

   Numbers are floats (doubles): fine for cycles/latencies, NOT for
   arbitrary int64 — the protocol encodes 64-bit return values as
   decimal strings. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let exception Bad of string in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let hex_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                match peek () with
                | Some c ->
                    code := (!code * 16) + hex_val c;
                    advance ()
                | None -> fail "bad \\u escape"
              done;
              (* encode the code point as UTF-8; surrogate pairs are
                 passed through as two 3-byte sequences (the protocol
                 never emits them) *)
              let c = !code in
              if c < 0x80 then Buffer.add_char b (Char.chr c)
              else if c < 0x800 then begin
                Buffer.add_char b (Char.chr (0xc0 lor (c lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (c land 0x3f)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xe0 lor (c lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3f)));
                Buffer.add_char b (Char.chr (0x80 lor (c land 0x3f)))
              end
          | _ -> fail "bad escape");
          go ())
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* RFC 8259 numbers: an optional minus, then 0 or a digit run not
     starting with 0, then optional fraction digits and an optional
     signed exponent — so no leading zeros, no bare dot, no plus *)
  let parse_number () =
    let start = !pos in
    let digits what =
      (match peek () with Some '0' .. '9' -> () | _ -> fail ("bad " ^ what));
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | _ -> digits "number");
    if peek () = Some '.' then begin
      advance ();
      digits "fraction"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits "exponent"
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value depth =
    if depth > 64 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad e -> Error e

(* -- printing ------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" f)
      else Buffer.add_string b (Printf.sprintf "%.12g" f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          write b x)
        fields;
      Buffer.add_char b '}'

(* one line, no newlines anywhere: a value is always exactly one
   protocol frame *)
let to_string (v : t) : string =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

(* [to_string (Obj ((k, v) :: fields))] from [k], [v] and the printed
   [to_string (Obj fields)], [fields] non-empty, without re-printing
   it: the job server's fast path keeps its answers pre-rendered *)
let prepend_member k v printed =
  let b = Buffer.create (String.length printed + 32) in
  write b (Obj [ (k, v) ]);
  Buffer.truncate b (Buffer.length b - 1);
  Buffer.add_char b ',';
  Buffer.add_substring b printed 1 (String.length printed - 1);
  Buffer.contents b

(* the file form: an object with a container member puts one member
   per line, an array with a container element puts one row per line,
   and everything else is written inline in the wire form; ends with a
   newline *)
let pretty (v : t) : string =
  let b = Buffer.create 4096 in
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let rec block indent v =
    let lines opening closing items add =
      Buffer.add_char b opening;
      List.iteri
        (fun i x ->
          Buffer.add_string b (if i > 0 then ",\n" else "\n");
          Buffer.add_string b (String.make (indent + 2) ' ');
          add x)
        items;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make indent ' ');
      Buffer.add_char b closing
    in
    match v with
    | Obj fields when not (List.for_all (fun (_, x) -> scalar x) fields) ->
        lines '{' '}' fields (fun (k, x) ->
            write b (Str k);
            Buffer.add_string b ": ";
            block (indent + 2) x)
    | Arr xs when not (List.for_all scalar xs) -> lines '[' ']' xs (write b)
    | v -> write b v
  in
  block 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* a number as printf "%.*f" would print it, so a file keeps the
   precision its writer chose *)
let fixed digits f = Num (float_of_string (Printf.sprintf "%.*f" digits f))

(* -- accessors ----------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let str = function Str s -> Some s | _ -> None

let num = function Num f -> Some f | _ -> None

let bool_ = function Bool b -> Some b | _ -> None

let str_member k v = Option.bind (member k v) str

let num_member k v = Option.bind (member k v) num

let int_member k v = Option.map int_of_float (num_member k v)

let bool_member k v = Option.bind (member k v) bool_
