(* Minimal JSON for the cnt-rpc wire protocol.

   The daemon and client must agree on bytes without an external JSON
   dependency, and result tables must survive the trip bit-for-bit.
   Finite floats therefore render with %.17g — 17 significant digits
   round-trip every IEEE-754 double exactly — and the three values JSON
   cannot express (NaN, the infinities) are encoded as the strings
   "NaN", "Infinity" and "-Infinity", which [to_float] maps back.

   [Raw] embeds pre-rendered JSON verbatim (progress events already
   formatted by {!Cnt_obs.Progress.event_to_json}, error payloads from
   {!Cnt_spice.Diag.error_json}); the parser never produces it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* [s] as the body of a JSON string, written straight into [buf]. *)
let add_escaped buf s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done

(* The C primitive [Printf]'s float conversions end in: for ["%.17g"]
   and ["%.0f"] [Printf.sprintf] returns exactly this primitive's text,
   without the closures and buffer it builds around the call. *)
external format_float : string -> float -> string = "caml_format_float"

let add_num buf v =
  if Float.is_nan v then Buffer.add_string buf "\"NaN\""
  else if v = Float.infinity then Buffer.add_string buf "\"Infinity\""
  else if v = Float.neg_infinity then Buffer.add_string buf "\"-Infinity\""
  else if Float.is_integer v && Float.abs v < 1e15 then
    (* integral values print without exponent so ints stay readable *)
    Buffer.add_string buf (format_float "%.0f" v)
  else Buffer.add_string buf (format_float "%.17g" v)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> add_num buf v
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          add buf v)
        fields;
      Buffer.add_char buf '}'
  | Raw s -> Buffer.add_string buf s

let to_string j =
  let buf = Buffer.create 256 in
  add buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Fail of string

(* The parser's state: the text and the read position.  The recursive
   descent below is a set of top-level functions over one cursor that
   test the end of input and read characters by index, so looking at a
   character allocates nothing. *)
type cursor = { text : string; n : int; mutable pos : int }

let fail c msg = raise (Fail (Printf.sprintf "%s at offset %d" msg c.pos))

(* The character at the read position; only called below [c.n]. *)
let cur c = String.unsafe_get c.text c.pos

let rec skip_ws c =
  if c.pos < c.n then
    match cur c with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_ws c
    | _ -> ()

let at c ch = c.pos < c.n && cur c = ch

let expect c ch =
  if at c ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let len = String.length word in
  let rec matches i = i = len || (word.[i] = c.text.[c.pos + i] && matches (i + 1)) in
  if c.pos + len <= c.n && matches 0 then begin
    c.pos <- c.pos + len;
    value
  end
  else fail c (Printf.sprintf "bad literal (wanted %s)" word)

(* The rest of a string once an escape is seen: [buf] holds what came
   before it, and the read position is at the backslash. *)
let rec string_escaped c buf =
  if c.pos >= c.n then fail c "unterminated string";
  let ch = cur c in
  c.pos <- c.pos + 1;
  match ch with
  | '"' -> Buffer.contents buf
  | '\\' ->
      if c.pos >= c.n then fail c "unterminated escape";
      let e = cur c in
      c.pos <- c.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
          if c.pos + 4 > c.n then fail c "truncated \\u escape";
          let hex = String.sub c.text c.pos 4 in
          c.pos <- c.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
          in
          (* the protocol itself only emits ASCII; pass others
             through as a literal escape so nothing is lost *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
      | _ -> fail c "bad escape");
      string_escaped c buf
  | ch ->
      Buffer.add_char buf ch;
      string_escaped c buf

(* A string with no escape is cut from the text in one piece. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let rec plain i =
    if i >= c.n then begin
      c.pos <- c.n;
      fail c "unterminated string"
    end
    else
      match String.unsafe_get c.text i with
      | '"' ->
          c.pos <- i + 1;
          String.sub c.text start (i - start)
      | '\\' ->
          let buf = Buffer.create (i - start + 16) in
          Buffer.add_substring buf c.text start (i - start);
          c.pos <- i;
          string_escaped c buf
      | _ -> plain (i + 1)
  in
  plain start

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number c =
  let start = c.pos in
  while c.pos < c.n && is_num_char (cur c) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string (String.sub c.text start (c.pos - start)) with
  | v -> v
  | exception Failure _ -> fail c "bad number"

let rec parse_value c depth =
  if depth > 64 then fail c "nesting too deep";
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match cur c with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else fields c depth []
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else items c depth []
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> Num (parse_number c)

and fields c depth acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c (depth + 1) in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    fields c depth ((k, v) :: acc)
  end
  else if at c '}' then begin
    c.pos <- c.pos + 1;
    Obj (List.rev ((k, v) :: acc))
  end
  else fail c "expected ',' or '}'"

and items c depth acc =
  let v = parse_value c (depth + 1) in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    items c depth (v :: acc)
  end
  else if at c ']' then begin
    c.pos <- c.pos + 1;
    Arr (List.rev (v :: acc))
  end
  else fail c "expected ',' or ']'"

let parse_exn text =
  let c = { text; n = String.length text; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> c.n then fail c "trailing content";
  v

let parse text =
  match parse_exn text with v -> Ok v | exception Fail msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_float = function
  | Num v -> Some v
  | Str "NaN" -> Some Float.nan
  | Str "Infinity" -> Some Float.infinity
  | Str "-Infinity" -> Some Float.neg_infinity
  | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 ->
      Some (int_of_float v)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None
