(* Parser for a small SPICE-like netlist dialect.

   Supported cards (case-insensitive; '+' continues the previous line;
   '*' and '$' start comments):

     Rname n1 n2 value
     Cname n1 n2 value
     Lname n1 n2 value
     Vname n+ n- [DC] value | PULSE(v1 v2 td tr tf pw per)
                            | SIN(vo va freq [td [damping]])
                            | PWL(t1 v1 t2 v2 ...)
     Iname n+ n- (same value forms)
     Mname d g s CNFET  [key=value ...]   (n-type piecewise CNFET)
     Mname d g s PCNFET [key=value ...]   (p-type)

   CNFET keys: model=1|2|piecewise|vs (default 2 — 1/2/piecewise pick
   the paper's piecewise backend, any other name a registered
   Device_model backend), temp=K, ef=eV, d=nm (diameter), tox=nm,
   kappa=, alphag=, alphad=, optimise=0|1, l=nm (tube length; enables
   intrinsic terminal capacitances), file=path (load a pre-fitted
   piecewise model card saved by Model_io instead of fitting; its
   polarity must match the card kind), plus backend-specific keys
   (vs: vt0, dibl, nss, vxo, beta, vdsat, cinv — see docs/MODELS.md).

   Directives: .op | .dc SRC start stop step | .tran tstep tstop
             | .ac dec n fstart fstop | .print v(node) i(vsrc) ...
             | .param NAME=EXPR ... | .include FILE | .end

   Anywhere a number appears an arithmetic expression over earlier
   .param definitions is accepted, spelled bare, as {expr} or as
   'expr': + - * / ^ with the usual precedence, parentheses, unary
   sign, engineering suffixes on literals, and a few functions
   (sqrt exp ln log log10 abs min max pow) plus the constant pi.

   Hierarchy: ".subckt NAME port1 port2 ... [param=default ...]" /
   ".ends" define a subcircuit whose body may reference its formal
   params; "Xinst n1 n2 ... NAME [param=value ...]" instantiates it
   with per-instance overrides.  Internal nodes and element names are
   prefixed with "inst.", instances may nest (depth <= 20).  Each
   distinct (subckt, parameter binding) resolves its body once into a
   shared pattern — N identical instances evaluate expressions and
   build device models a single time (see the parse.subckt.* counters).

   Every Parse_error carries a source location (file:line:col — the
   first physical line for '+'-continued cards) and a caret excerpt of
   the offending line.  See docs/NETLIST.md for the full grammar. *)

module Obs = Cnt_obs.Obs

type loc = Diag.source_loc = { file : string; line : int; col : int }

type error = Diag.located = {
  loc : loc option;
  message : string;
  excerpt : string option;
}

exception Parse_error of error

(* Pattern/instance telemetry: [pattern_compiles] counts distinct
   (subckt, parameter binding) body resolutions, [pattern_hits] cache
   reuses, [instances] X-card expansions.  A 1000-instance deck with
   one binding shows compiles=1, hits=999, instances=1000. *)
let c_pattern_compiles = Obs.counter "parse.subckt.pattern_compiles"
let c_pattern_hits = Obs.counter "parse.subckt.pattern_hits"
let c_instances = Obs.counter "parse.subckt.instances"

type print_item =
  | Print_v of string
  | Print_i of string
  | Print_id of string (* drain current of a named CNFET *)

type analysis =
  | Op
  | Dc_sweep of {
      source : string;
      start : float;
      stop : float;
      step : float;
    }
  | Tran of {
      tstep : float;
      tstop : float;
    }
  | Ac_sweep of {
      per_decade : int;
      fstart : float;
      fstop : float;
    }

type deck = {
  title : string;
  circuit : Circuit.t;
  analyses : analysis list;
  prints : print_item list;
  files : string list; (* entry file first, then includes in order *)
}

(* ------------------------------------------------------------------ *)
(* Parse state: raw sources for excerpts, located failure             *)
(* ------------------------------------------------------------------ *)

type state = {
  sources : (string, string array) Hashtbl.t; (* file -> physical lines *)
  mutable file_order : string list; (* reversed registration order *)
}

(* Record a source's physical lines for excerpts; returns them. *)
let register_source st file text =
  if not (Hashtbl.mem st.sources file) then
    st.file_order <- file :: st.file_order;
  let lines = Array.of_list (String.split_on_char '\n' text) in
  Hashtbl.replace st.sources file lines;
  lines

(* "  12 | R1 in out {r}\n     |           ^" *)
let excerpt_at st (l : loc) =
  match Hashtbl.find_opt st.sources l.file with
  | None -> None
  | Some lines when l.line >= 1 && l.line <= Array.length lines ->
      let text =
        String.map (fun c -> if c = '\t' then ' ' else c) lines.(l.line - 1)
      in
      let caret = max 0 (min (l.col - 1) (String.length text)) in
      Some
        (Printf.sprintf "%4d | %s\n     | %s^" l.line text
           (String.make caret ' '))
  | Some _ -> None

let fail st (l : loc) fmt =
  Printf.ksprintf
    (fun message ->
      raise (Parse_error { loc = Some l; message; excerpt = excerpt_at st l }))
    fmt

let fail_nowhere fmt =
  Printf.ksprintf
    (fun message -> raise (Parse_error { loc = None; message; excerpt = None }))
    fmt

(* ------------------------------------------------------------------ *)
(* Expression evaluator                                                *)
(* ------------------------------------------------------------------ *)

module Env = Map.Make (String)

(* Internal: carries the character offset of the problem inside the
   expression text so the caller can point a located error at it. *)
exception Expr_error of int * string

let expr_error i fmt = Printf.ksprintf (fun m -> raise (Expr_error (i, m))) fmt

(* The evaluator's state: the expression text, the parameter binding it
   reads, and the read position.  The recursive descent below is a set
   of top-level functions over one cursor, so an evaluation allocates
   the cursor, not a closure per rule. *)
type cursor = { s : string; env : float Env.t; mutable pos : int }

let is_digit c = c >= '0' && c <= '9'
let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_start c = is_letter c || c = '_'
let is_ident c = is_ident_start c || is_digit c
let at_end c = c.pos >= String.length c.s

(* The character under the cursor; '\000' at the end, which no rule
   matches (an end that matters is tested with [at_end]). *)
let peek c = if at_end c then '\000' else c.s.[c.pos]
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while (not (at_end c)) && (c.s.[c.pos] = ' ' || c.s.[c.pos] = '\t') do
    advance c
  done

(* Scale of the engineering suffix spelled by [s.[u0 .. u1-1]] (any
   case; trailing letters after the suffix are a unit and ignored). *)
let unit_scale s u0 u1 =
  let low k = Char.lowercase_ascii s.[k] in
  if u1 = u0 then 1.0
  else if u1 - u0 >= 3 && low u0 = 'm' && low (u0 + 1) = 'e' && low (u0 + 2) = 'g'
  then 1e6
  else
    match low u0 with
    | 'f' -> 1e-15
    | 'p' -> 1e-12
    | 'n' -> 1e-9
    | 'u' -> 1e-6
    | 'm' -> 1e-3
    | 'k' -> 1e3
    | 'g' -> 1e9
    | 't' -> 1e12
    | _ ->
        expr_error u0 "unknown unit suffix %S"
          (String.lowercase_ascii (String.sub s u0 (u1 - u0)))

let scan_number c =
  let s = c.s in
  let n = String.length s in
  let i0 = c.pos in
  while c.pos < n && (is_digit s.[c.pos] || s.[c.pos] = '.') do
    advance c
  done;
  (if c.pos < n && (s.[c.pos] = 'e' || s.[c.pos] = 'E') then
     let k = c.pos + 1 in
     let k = if k < n && (s.[k] = '+' || s.[k] = '-') then k + 1 else k in
     if k < n && is_digit s.[k] then begin
       c.pos <- k;
       while c.pos < n && is_digit s.[c.pos] do
         advance c
       done
     end);
  let mant = String.sub s i0 (c.pos - i0) in
  let v =
    match float_of_string_opt mant with
    | Some v -> v
    | None -> expr_error i0 "bad number %S" mant
  in
  let u0 = c.pos in
  while c.pos < n && is_letter s.[c.pos] do
    advance c
  done;
  v *. unit_scale s u0 c.pos

let apply_fn i name args =
  let one f =
    match args with
    | [ x ] -> f x
    | _ -> expr_error i "%s expects 1 argument, got %d" name (List.length args)
  in
  let two f =
    match args with
    | [ x; y ] -> f x y
    | _ -> expr_error i "%s expects 2 arguments, got %d" name (List.length args)
  in
  match name with
  | "sqrt" -> one sqrt
  | "exp" -> one exp
  | "ln" | "log" -> one log
  | "log10" -> one log10
  | "abs" -> one abs_float
  | "min" -> two min
  | "max" -> two max
  | "pow" -> two ( ** )
  | _ -> expr_error i "unknown function %S" name

(* Precedence, loosest to tightest: + - (binary), * /, unary + -, ^
   (right-associative, so 2^3^2 = 512 and -2^2 = -4 while 2^-2 works).
   Literals take SPICE engineering suffixes (f p n u m k meg g t;
   m = milli, meg = mega; trailing letters after a valid suffix are
   units and ignored, as in "1kohm"). *)
let rec expr c =
  let v = ref (term c) and more = ref true in
  while !more do
    skip_ws c;
    match peek c with
    | '+' ->
        advance c;
        v := !v +. term c
    | '-' ->
        advance c;
        v := !v -. term c
    | _ -> more := false
  done;
  !v

and term c =
  let v = ref (unary c) and more = ref true in
  while !more do
    skip_ws c;
    match peek c with
    | '*' ->
        advance c;
        v := !v *. unary c
    | '/' ->
        advance c;
        v := !v /. unary c
    | _ -> more := false
  done;
  !v

and unary c =
  skip_ws c;
  match peek c with
  | '-' ->
      advance c;
      -.unary c
  | '+' ->
      advance c;
      unary c
  | _ -> power c

and power c =
  let base = atom c in
  skip_ws c;
  match peek c with
  | '^' ->
      advance c;
      base ** unary c
  | _ -> base

and atom c =
  skip_ws c;
  if at_end c then expr_error c.pos "expected a value";
  match c.s.[c.pos] with
  | '(' ->
      advance c;
      let v = expr c in
      skip_ws c;
      if peek c = ')' then advance c else expr_error c.pos "expected ')'";
      v
  | ch when is_digit ch || ch = '.' -> scan_number c
  | ch when is_ident_start ch ->
      let i0 = c.pos in
      while (not (at_end c)) && is_ident c.s.[c.pos] do
        advance c
      done;
      let name = String.lowercase_ascii (String.sub c.s i0 (c.pos - i0)) in
      skip_ws c;
      if peek c = '(' then begin
        advance c;
        skip_ws c;
        let args = if peek c = ')' then (advance c; []) else call_args c [] in
        apply_fn i0 name args
      end
      else begin
        match Env.find_opt name c.env with
        | Some v -> v
        | None when name = "pi" -> Float.pi
        | None -> expr_error i0 "unknown parameter %S" name
      end
  | ch -> expr_error c.pos "unexpected %C in expression" ch

(* Comma-separated arguments up to the closing ')', in order. *)
and call_args c acc =
  let acc = expr c :: acc in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      call_args c acc
  | ')' ->
      advance c;
      List.rev acc
  | _ -> expr_error c.pos "expected ',' or ')'"

let eval_in env s =
  let c = { s; env; pos = 0 } in
  let v = expr c in
  skip_ws c;
  if not (at_end c) then expr_error c.pos "unexpected %C in expression" s.[c.pos];
  v

(* Strip one layer of {...} or '...' and report the offset shift. *)
let unwrap_expr text =
  let l = String.length text in
  if l >= 2 && ((text.[0] = '{' && text.[l - 1] = '}')
               || (text.[0] = '\'' && text.[l - 1] = '\''))
  then (String.sub text 1 (l - 2), 1)
  else (text, 0)

(* Public helper (tests, tools): evaluate one expression under a
   parameter binding.  Accepts bare, {...} and '...' spellings. *)
let eval_expr ?(params = []) text =
  let env =
    List.fold_left
      (fun m (k, v) -> Env.add (String.lowercase_ascii k) v m)
      Env.empty params
  in
  let inner, _ = unwrap_expr text in
  match eval_in env inner with
  | v -> Ok v
  | exception Expr_error (_, msg) -> Error msg

(* ------------------------------------------------------------------ *)
(* Lexer: physical lines -> located cards                              *)
(* ------------------------------------------------------------------ *)

type token = { text : string; at : loc }

(* A card holds its physical segments (location and text, in order)
   and is cut into tokens on demand, so a card waiting to be resolved
   holds only its text. *)
type card = { at : loc; segs : (loc * string) list }

let strip_comment line =
  match String.index_opt line '$' with
  | Some i -> String.sub line 0 i
  | None -> line

(* A card's physical segments joined by one space each, with where
   every segment starts: its offset in [chars] and its source location.
   Segment [k > 0] also owns the separator space before it, which maps
   to the segment's own first column. *)
type joined = {
  chars : string;
  seg_off : int array;
  seg_at : loc array;
}

let join_segments = function
  | [ (at, chars) ] -> { chars; seg_off = [| 0 |]; seg_at = [| at |] }
  | segs ->
      let segs = Array.of_list segs in
      let seg_at = Array.map fst segs in
      let seg_off = Array.make (Array.length segs) 0 in
      for k = 1 to Array.length segs - 1 do
        seg_off.(k) <- seg_off.(k - 1) + String.length (snd segs.(k - 1)) + 1
      done;
      {
        chars = String.concat " " (Array.to_list (Array.map snd segs));
        seg_off;
        seg_at;
      }

(* Source location of offset [p] of the joined text. *)
let loc_of_offset j p =
  let k = ref (Array.length j.seg_off - 1) in
  while !k > 0 && j.seg_off.(!k) - 1 > p do
    decr k
  done;
  let l0 = j.seg_at.(!k) in
  { l0 with col = l0.col + max 0 (p - j.seg_off.(!k)) }

(* Split a joined card into tokens on spaces/tabs/commas, keeping
   (...), {...} and '...' groups intact: "pulse(0 1 2)" and "{2 * r}"
   are single tokens.  Total: unbalanced groups simply end with the
   card and surface as errors at their use site.  A token is the run of
   characters from its first one to the separator that ends it, so it
   is cut out of the text once and located once. *)
let tokenize_joined ?(limit = max_int) j =
  let text = j.chars in
  let n = String.length text in
  let token start i =
    { text = String.sub text start (i - start); at = loc_of_offset j start }
  in
  (* [start]: the open token's first offset, -1 between tokens *)
  let rec scan i start paren brace quoted count acc =
    if count >= limit then List.rev acc
    else if i >= n then List.rev (if start >= 0 then token start n :: acc else acc)
    else begin
      let ch = text.[i] in
      if quoted then scan (i + 1) start paren brace (ch <> '\'') count acc
      else
        match ch with
        | (' ' | '\t' | ',') when paren = 0 && brace = 0 ->
            if start < 0 then scan (i + 1) start paren brace false count acc
            else scan (i + 1) (-1) paren brace false (count + 1) (token start i :: acc)
        | _ -> (
            let start = if start < 0 then i else start in
            match ch with
            | '\'' -> scan (i + 1) start paren brace true count acc
            | '(' -> scan (i + 1) start (paren + 1) brace false count acc
            | ')' -> scan (i + 1) start (paren - 1) brace false count acc
            | '{' -> scan (i + 1) start paren (brace + 1) false count acc
            | '}' -> scan (i + 1) start paren (brace - 1) false count acc
            | _ -> scan (i + 1) start paren brace false count acc)
    end
  in
  scan 0 (-1) 0 0 false 0 []

(* The card's tokens; with [limit], only that many from the start. *)
let card_tokens ?limit card = tokenize_joined ?limit (join_segments card.segs)

let card_head card =
  match card_tokens ~limit:1 card with [ head ] -> Some head | _ -> None

(* Whether the segments make at least one token: some character that is
   not a separator. *)
let has_token segs =
  List.exists
    (fun (_, text) -> String.exists (fun c -> c <> ' ' && c <> '\t' && c <> ',') text)
    segs

(* ".include FILE" — spliced at lex time so a card never spans an
   include boundary and every included card keeps its own file in its
   location. *)
let rec include_from content k =
  k = 8 || (Char.lowercase_ascii content.[k] = ".include".[k] && include_from content (k + 1))

let is_include_line content =
  let l = String.length content in
  l >= 8 && include_from content 0 && (l = 8 || content.[8] = ' ' || content.[8] = '\t')

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let include_path st at content =
  let arg = String.trim (String.sub content 8 (String.length content - 8)) in
  let arg =
    let l = String.length arg in
    if l >= 2
       && ((arg.[0] = '"' && arg.[l - 1] = '"')
          || (arg.[0] = '\'' && arg.[l - 1] = '\''))
    then String.sub arg 1 (l - 2)
    else arg
  in
  if arg = "" then fail st at ".include needs a file path";
  let base_dir = Filename.dirname at.file in
  if Filename.is_relative arg && base_dir <> "." && base_dir <> "<deck>" then
    Filename.concat base_dir arg
  else arg

(* Where a physical line's text ends: at its first '$' (a comment). *)
let comment_start raw =
  match String.index_opt raw '$' with Some i -> i | None -> String.length raw

(* The line's text from [from] up to [stop], without trailing blanks,
   copied once. *)
let content_from raw ~stop from =
  let e = ref stop in
  while !e > from && (raw.[!e - 1] = ' ' || raw.[!e - 1] = '\t' || raw.[!e - 1] = '\r') do
    decr e
  done;
  String.sub raw from (!e - from)

(* First character before [stop] that is not a space or tab; -1 on a
   blank line. *)
let first_nonws raw ~stop =
  let i = ref 0 in
  while !i < stop && (raw.[!i] = ' ' || raw.[!i] = '\t') do
    incr i
  done;
  if !i >= stop then -1 else !i

let rec lex_lines st ~stack ~file ~lines ~from emit =
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (at, segs) ->
        current := None;
        if has_token segs then emit { at; segs = List.rev segs }
  in
  let nlines = Array.length lines in
  for idx = from to nlines - 1 do
    let raw = lines.(idx) in
    let stop = comment_start raw in
    match first_nonws raw ~stop with
    | -1 -> ()
    | s when raw.[s] = '*' -> ()
    | s when raw.[s] = '+' ->
        let at = { file; line = idx + 1; col = s + 1 } in
        (match !current with
        | None -> fail st at "continuation line '+' with nothing before it"
        | Some (card_at, segs) ->
            let content = content_from raw ~stop (s + 1) in
            let seg_at = { file; line = idx + 1; col = s + 2 } in
            current := Some (card_at, (seg_at, content) :: segs))
    | s ->
        flush ();
        let content = content_from raw ~stop s in
        let at = { file; line = idx + 1; col = s + 1 } in
        if is_include_line content then begin
          let path = include_path st at content in
          if List.mem path stack then
            fail st at ".include cycle: %s"
              (String.concat " -> " (List.rev (path :: stack)));
          if List.length stack > 40 then
            fail st at ".include nested deeper than 40";
          let text =
            match read_file path with
            | text -> text
            | exception Sys_error msg ->
                fail st at "cannot read .include file: %s" msg
          in
          lex_lines st ~stack:(path :: stack) ~file:path
            ~lines:(register_source st path text)
            ~from:0 emit
        end
        else current := Some (at, [ (at, content) ])
  done;
  flush ()

(* ------------------------------------------------------------------ *)
(* Token utilities                                                     *)
(* ------------------------------------------------------------------ *)

let lc = String.lowercase_ascii

let is_grouped t =
  String.length t.text > 0
  && (t.text.[0] = '{' || t.text.[0] = '\'' || t.text.[0] = '(')

(* A card operand after [glue_eq]: its token and, for a [key=value]
   the lexer split on spaces around '=', where the value starts — in
   the token it came from, so a diagnostic inside the value points into
   the value.  [None] for an operand that was one lexer token, whose
   value sits right after its first '='. *)
type operand = { tok : token; vat : loc option }

(* Re-attach key=value pairs the tokenizer split on spaces around '=':
   "w = 2", "w= 2" and "w =2" all become the single token "w=2". *)
let glue_eq toks =
  let ends_eq s = String.length s > 0 && s.[String.length s - 1] = '=' in
  let starts_eq s = String.length s > 0 && s.[0] = '=' in
  (* the location right after the first '=' of the joined pieces: in
     the piece holding that '=', or at the start of the next piece when
     the '=' ends its own *)
  let rec value_at = function
    | [] -> None
    | (p : token) :: ps -> (
        match String.index_opt p.text '=' with
        | None -> value_at ps
        | Some j when j + 1 < String.length p.text ->
            Some { p.at with col = p.at.col + j + 1 }
        | Some _ -> ( match ps with q :: _ -> Some q.at | [] -> None))
  in
  (* [a] starts the run; [rev_glued] holds the tokens joined onto it *)
  let rec go = function
    | [] -> []
    | a :: rest when is_grouped a -> { tok = a; vat = None } :: go rest
    | a :: rest -> run a a.text [] rest
  and run a text rev_glued = function
    | (b : token) :: rest when ends_eq text || starts_eq b.text ->
        run a (text ^ b.text) (b :: rev_glued) rest
    | rest ->
        let o =
          if rev_glued = [] then { tok = a; vat = None }
          else { tok = { a with text }; vat = value_at (a :: List.rev rev_glued) }
        in
        o :: go rest
  in
  go toks

let has_eq t =
  (not (is_grouped t)) && String.contains t.text '='

(* Evaluate an expression found at [at] (plus [coloff] characters in)
   under the parameter binding [env]; located failure.  Every number of
   a deck comes through here, so this is where a NaN or an infinity
   (0/0, sqrt(-1), 1/0, an overflowing literal) is stopped: no device,
   element or analysis downstream is asked to make sense of one. *)
let eval_text st env ~at ~coloff text =
  let inner, base = unwrap_expr text in
  match eval_in env inner with
  | v when Float.is_finite v -> v
  | v ->
      fail st { at with col = at.col + coloff + base }
        "%s evaluates to %s, not a finite number" text
        (if Float.is_nan v then "NaN" else if v > 0.0 then "+inf" else "-inf")
  | exception Expr_error (i, msg) ->
      fail st { at with col = at.col + coloff + base + i } "%s" msg

let value_of st env (tok : token) = eval_text st env ~at:tok.at ~coloff:0 tok.text

let is_ident_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* "key=value" operand -> (key lowercase, value text, value loc). *)
let split_kv st { tok; vat } =
  match String.index_opt tok.text '=' with
  | Some i when i > 0 && i < String.length tok.text - 1 ->
      let key = lc (String.sub tok.text 0 i) in
      let v = String.sub tok.text (i + 1) (String.length tok.text - i - 1) in
      let vat =
        match vat with
        | Some vat -> vat
        | None -> { tok.at with col = tok.at.col + i + 1 }
      in
      (key, v, vat)
  | _ -> fail st tok.at "expected key=value, got %S" tok.text

(* Extract "name(args)" -> (name, [arg strings]); plain tokens return
   (token, []).  Args split on spaces/commas outside {...}/'...'. *)
let call_form tok =
  match String.index_opt tok '(' with
  | None -> (lc tok, [])
  | Some i ->
      let name = lc (String.sub tok 0 i) in
      let inner = String.sub tok (i + 1) (String.length tok - i - 1) in
      let inner =
        if String.length inner > 0 && inner.[String.length inner - 1] = ')'
        then String.sub inner 0 (String.length inner - 1)
        else inner
      in
      let args = ref [] in
      let buf = Buffer.create 8 in
      let brace = ref 0 and quoted = ref false in
      let flushb () =
        if Buffer.length buf > 0 then begin
          args := Buffer.contents buf :: !args;
          Buffer.clear buf
        end
      in
      String.iter
        (fun c ->
          if !quoted then begin
            Buffer.add_char buf c;
            if c = '\'' then quoted := false
          end
          else
            match c with
            | '\'' ->
                quoted := true;
                Buffer.add_char buf c
            | '{' ->
                incr brace;
                Buffer.add_char buf c
            | '}' ->
                decr brace;
                Buffer.add_char buf c
            | (' ' | '\t' | ',') when !brace = 0 -> flushb ()
            | c -> Buffer.add_char buf c)
        inner;
      flushb ();
      (name, List.rev !args)

(* ------------------------------------------------------------------ *)
(* Subcircuit definitions and resolved patterns                        *)
(* ------------------------------------------------------------------ *)

(* A subcircuit body resolved under one parameter binding: expressions
   are evaluated (device models built and memoised), node names are
   still the body's own — instancing only maps nodes and prefixes
   names, so the resolved pattern is shared by every instance with the
   same binding. *)
type rcard =
  | R_two of {
      kind : [ `R | `C | `L ];
      rname : string;
      n1 : string;
      n2 : string;
      value : float;
    }
  | R_src of {
      kind : [ `V | `I ];
      rname : string;
      np : string;
      nn : string;
      wave : Waveform.t;
      ac : float;
    }
  | R_fet of {
      rname : string;
      d : string;
      g : string;
      s : string;
      model : Cnt_core.Device_model.t;
      length : float;
    }
  | R_inst of {
      rname : string;
      nodes : string list;
      sub : subckt;
      ienv : float Env.t; (* full binding the instance body resolves under *)
      sig_ : string; (* [env_signature ienv] *)
      rat : loc;
    }

and subckt = {
  sname : string;
  ports : string list; (* lowercase port node names *)
  formals : (string * token) list; (* formal param -> default expr *)
  body : card list;
  sloc : loc;
  patterns : (string, rcard list) Hashtbl.t; (* binding signature -> body *)
  bindings : (string, float Env.t * float Env.t * string) Hashtbl.t;
      (* an instance's override texts -> (caller binding, binding,
         signature) *)
}

(* Separate .subckt blocks from top-level cards. *)
let extract_subckts st cards =
  let defs = Hashtbl.create 4 in
  let rec go acc current = function
    | [] -> begin
        match current with
        | Some def -> fail st def.sloc ".subckt %s has no .ends" def.sname
        | None -> List.rev acc
      end
    | (card : card) :: rest -> begin
        match card_head card with
        | None -> go acc current rest
        | Some head -> begin
            match (lc head.text, current) with
            | ".subckt", Some _ ->
                fail st head.at ".subckt definitions cannot nest"
            | ".subckt", None -> begin
                match List.tl (card_tokens card) with
                | [] -> fail st head.at ".subckt needs a name and ports"
                | name :: rest_toks ->
                    let sname = lc name.text in
                    if Hashtbl.mem defs sname then
                      fail st name.at "duplicate subcircuit %s" sname;
                    let ports, formals =
                      List.partition_map
                        (fun o ->
                          if has_eq o.tok then begin
                            let key, v, vat = split_kv st o in
                            if not (is_ident_name key) then
                              fail st o.tok.at "bad parameter name %S" key;
                            Either.Right (key, { text = v; at = vat })
                          end
                          else Either.Left (lc o.tok.text))
                        (glue_eq rest_toks)
                    in
                    if ports = [] then
                      fail st head.at ".subckt needs at least one port";
                    go acc
                      (Some
                         {
                           sname;
                           ports;
                           formals;
                           body = [];
                           sloc = head.at;
                           patterns = Hashtbl.create 4;
                           bindings = Hashtbl.create 4;
                         })
                      rest
              end
            | ".ends", Some def ->
                Hashtbl.add defs def.sname
                  { def with body = List.rev def.body };
                go acc None rest
            | ".ends", None -> fail st head.at ".ends without .subckt"
            | _, Some def ->
                go acc (Some { def with body = card :: def.body }) rest
            | _, None -> go (card :: acc) None rest
          end
      end
  in
  let top = go [] None cards in
  (defs, top)

(* ------------------------------------------------------------------ *)
(* Element cards                                                       *)
(* ------------------------------------------------------------------ *)

(* Split off a trailing "AC <magnitude>" pair from a source card's
   value tokens. *)
let split_ac st env tokens =
  let rec go acc = function
    | [] -> (List.rev acc, 0.0)
    | [ tok ] when lc tok.text = "ac" ->
        fail st tok.at "AC keyword needs a magnitude"
    | tok :: mag :: rest when lc tok.text = "ac" ->
        if rest <> [] then
          fail st (List.hd rest).at "AC magnitude must end the source card";
        (List.rev acc, value_of st env mag)
    | tok :: rest -> go (tok :: acc) rest
  in
  go [] tokens

(* Parse the value part of an independent source card.  A waveform its
   constructor rejects (a negative pulse width, say) is located at the
   waveform's token. *)
let source_wave st env ~at tokens =
  match tokens with
  | [] -> fail st at "source needs a value"
  | tok :: rest -> begin
      let name, args = call_form tok.text in
      let num a = eval_text st env ~at:tok.at ~coloff:0 a in
      try
        match (name, args, rest) with
        | "dc", [], v :: _ -> Waveform.dc (value_of st env v)
        | "dc", [ v ], _ -> Waveform.dc (num v)
        | "pulse", args, _ -> begin
            match List.map num args with
            | [ v1; v2; td; tr; tf; pw; per ] ->
                Waveform.pulse ~delay:td ~rise:tr ~fall:tf ~v1 ~v2 ~width:pw
                  ~period:per ()
            | _ ->
                fail st tok.at "pulse needs 7 parameters (v1 v2 td tr tf pw per)"
          end
        | "sin", args, _ -> begin
            match List.map num args with
            | [ vo; va; freq ] ->
                Waveform.sin_wave ~offset:vo ~amplitude:va ~freq ()
            | [ vo; va; freq; td ] ->
                Waveform.sin_wave ~delay:td ~offset:vo ~amplitude:va ~freq ()
            | [ vo; va; freq; td; damping ] ->
                Waveform.sin_wave ~delay:td ~damping ~offset:vo ~amplitude:va
                  ~freq ()
            | _ ->
                fail st tok.at
                  "sin needs 3-5 parameters (vo va freq [td [damping]])"
          end
        | "pwl", args, _ -> begin
            let nums = List.map num args in
            let rec pair = function
              | [] -> []
              | t :: v :: rest -> (t, v) :: pair rest
              | [ _ ] -> fail st tok.at "pwl needs an even number of values"
            in
            Waveform.pwl (pair nums)
          end
        | _, [], _ -> Waveform.dc (value_of st env tok)
        | _ -> fail st tok.at "unrecognised source value %S" tok.text
      with Invalid_argument msg -> fail st tok.at "%s" msg
    end

(* key=value attribute list for device cards: (key, text, value loc). *)
let attributes st tokens =
  List.map (split_kv st) (glue_eq tokens)

(* Resolve a CNFET card into a registered device model.  The registry
   ({!Cnt_core.Device_model.of_card}) picks the backend from [model=]
   (1|2 = piecewise for deck compatibility; any registered name
   otherwise), resolves defaults and memoises equal cards so a netlist
   with many identical transistors builds the model once.  [file=]
   bypasses the registry and loads a pre-fitted piecewise model card
   saved by {!Cnt_core.Model_io}. *)
let cnfet_model st env ~at ~polarity attrs =
  let eval_attr key =
    List.find_map
      (fun (k, v, vat) ->
        if k = key then Some (eval_text st env ~at:vat ~coloff:0 v) else None)
      attrs
  in
  let length =
    (match eval_attr "l" with Some v -> v | None -> 0.0) *. 1e-9
  in
  let plain = List.map (fun (k, v, _) -> (k, v)) attrs in
  match List.find_opt (fun (k, _, _) -> k = "file") attrs with
  | Some (_, path, vat) ->
      let m =
        try Cnt_core.Model_io.load path with
        | Cnt_core.Model_io.Bad_model_file msg -> fail st vat "%s" msg
        | Sys_error msg -> fail st vat "%s" msg
      in
      if Cnt_core.Cnt_model.polarity m <> polarity then
        fail st vat "model file %s has the wrong polarity for this card" path;
      (Cnt_core.Device_model.of_piecewise m, length)
  | None -> (
      (* resolve every numeric attribute through the expression
         evaluator, pointing errors at the attribute's own value *)
      let number text =
        let vat =
          List.find_map
            (fun (_, v, vat) -> if v = text then Some vat else None)
            attrs
        in
        eval_text st env ~at:(Option.value vat ~default:at) ~coloff:0 text
      in
      match Cnt_core.Device_model.of_card ~polarity ~number plain with
      | Ok m -> (m, length)
      | Error msg -> fail st at "%s" msg)

(* Canonical signature of a parameter binding, used to share resolved
   subcircuit patterns across instances: for every binding in name
   order, the name, a NUL (no name contains one) and the 8 bytes of the
   value's bit pattern.  Bitwise-equal bindings, and only those, share
   a signature. *)
let env_signature env =
  let size = Env.fold (fun k _ acc -> acc + String.length k + 9) env 0 in
  let b = Bytes.create size in
  let (_ : int) =
    Env.fold
      (fun k v pos ->
        let l = String.length k in
        Bytes.blit_string k 0 b pos l;
        Bytes.set b (pos + l) '\000';
        Bytes.set_int64_le b (pos + l + 1) (Int64.bits_of_float v);
        pos + l + 9)
      env 0
  in
  Bytes.unsafe_to_string b

(* Resolve one element card under [env].  Node names are kept exactly
   as written; hierarchy is applied later by [emit_rcard]. *)
let rec resolve_card st defs env toks =
  match toks with
  | [] -> assert false (* the lexer drops empty cards *)
  | head :: args -> begin
      let two kind usage =
        match args with
        | [ n1; n2; v ] ->
            R_two
              {
                kind;
                rname = head.text;
                n1 = n1.text;
                n2 = n2.text;
                value = value_of st env v;
              }
        | _ -> fail st head.at "%s" usage
      in
      match Char.lowercase_ascii head.text.[0] with
      | 'r' -> two `R "resistor: Rname n1 n2 value"
      | 'c' -> two `C "capacitor: Cname n1 n2 value"
      | 'l' -> two `L "inductor: Lname n1 n2 value"
      | 'v' | 'i' -> begin
          let kind =
            if Char.lowercase_ascii head.text.[0] = 'v' then `V else `I
          in
          match args with
          | np :: nn :: value ->
              let value, ac = split_ac st env value in
              R_src
                {
                  kind;
                  rname = head.text;
                  np = np.text;
                  nn = nn.text;
                  wave = source_wave st env ~at:head.at value;
                  ac;
                }
          | _ ->
              fail st head.at "%s: %cname n+ n- value [AC mag]"
                (if kind = `V then "vsource" else "isource")
                (if kind = `V then 'V' else 'I')
        end
      | 'm' -> begin
          match args with
          | d :: g :: s :: kind :: attr_toks ->
              let polarity =
                match lc kind.text with
                | "cnfet" -> Cnt_core.Cnt_model.N_type
                | "pcnfet" -> Cnt_core.Cnt_model.P_type
                | k -> fail st kind.at "unknown device kind %S" k
              in
              let model, length =
                cnfet_model st env ~at:head.at ~polarity
                  (attributes st attr_toks)
              in
              R_fet
                {
                  rname = head.text;
                  d = d.text;
                  g = g.text;
                  s = s.text;
                  model;
                  length;
                }
          | _ ->
              fail st head.at
                "cnfet: Mname drain gate source CNFET|PCNFET [key=value...]"
        end
      | 'x' -> begin
          (* node and subcircuit tokens, last first; overrides in order *)
          let rev_plains, rev_kvs =
            List.fold_left
              (fun (plains, kvs) o ->
                if has_eq o.tok then (plains, o :: kvs) else (o.tok :: plains, kvs))
              ([], []) (glue_eq args)
          in
          let kvs = List.rev rev_kvs in
          match rev_plains with
          | subtok :: rev_nodes -> begin
              let sub_name = Circuit.lowercase subtok.text in
              let sub =
                match Hashtbl.find_opt defs sub_name with
                | Some d -> d
                | None -> fail st subtok.at "unknown subcircuit %s" sub_name
              in
              let nodes = List.rev_map (fun t -> t.text) rev_nodes in
              if List.length nodes <> List.length sub.ports then
                fail st head.at "%s expects %d ports, got %d" sub_name
                  (List.length sub.ports) (List.length nodes);
              (* overrides must name declared formals; both defaults
                 and overrides evaluate in the caller's binding, so the
                 same override texts under the same caller binding give
                 the same binding: it is worked out once *)
              let bind () =
                let overrides =
                  List.map
                    (fun o ->
                      let key, v, vat = split_kv st o in
                      if not (List.mem_assoc key sub.formals) then
                        fail st o.tok.at
                          "%s is not a parameter of subcircuit %s%s" key
                          sub_name
                          (match sub.formals with
                          | [] -> " (it declares none)"
                          | fs ->
                              Printf.sprintf " (parameters: %s)"
                                (String.concat ", " (List.map fst fs)));
                      (key, eval_text st env ~at:vat ~coloff:0 v))
                    kvs
                in
                List.fold_left
                  (fun acc (key, default_tok) ->
                    let v =
                      match List.assoc_opt key overrides with
                      | Some v -> v
                      | None -> value_of st env default_tok
                    in
                    Env.add key v acc)
                  env sub.formals
              in
              let texts = String.concat "\000" (List.map (fun o -> o.tok.text) kvs) in
              let ienv, sig_ =
                match Hashtbl.find_opt sub.bindings texts with
                | Some (caller, ienv, sig_) when caller == env -> (ienv, sig_)
                | _ ->
                    let ienv = bind () in
                    let sig_ = env_signature ienv in
                    Hashtbl.replace sub.bindings texts (env, ienv, sig_);
                    (ienv, sig_)
              in
              R_inst { rname = head.text; nodes; sub; ienv; sig_; rat = head.at }
            end
          | [] ->
              fail st head.at "instance: Xname node... SUBCKT [param=value...]"
        end
      | '.' ->
          if lc head.text = ".param" then
            fail st head.at
              ".param is not allowed inside .subckt (declare formal \
               parameters on the .subckt line instead)"
          else fail st head.at "directives are not allowed inside .subckt"
      | _ -> fail st head.at "unknown card %S" head.text
    end

(* Resolve a subcircuit body under one binding, sharing the result
   across instances with the same binding. *)
and resolve_body st defs (def : subckt) ienv sig_ =
  match Hashtbl.find_opt def.patterns sig_ with
  | Some cards ->
      Obs.incr c_pattern_hits;
      cards
  | None ->
      Obs.incr c_pattern_compiles;
      let cards =
        List.map (fun card -> resolve_card st defs ienv (card_tokens card)) def.body
      in
      Hashtbl.add def.patterns sig_ cards;
      cards

(* ------------------------------------------------------------------ *)
(* Hierarchy expansion over resolved cards                             *)
(* ------------------------------------------------------------------ *)

(* [prefix], a '.' and [name] lower-cased, led by [name]'s first letter
   (lower-cased) when [typed]: one string of exactly that size. *)
let dotted ~typed prefix name =
  let o = if typed then 1 else 0 in
  let lp = String.length prefix and ln = String.length name in
  let b = Bytes.create (o + lp + 1 + ln) in
  if typed then Bytes.set b 0 (Char.lowercase_ascii name.[0]);
  Bytes.blit_string prefix 0 b o lp;
  Bytes.set b (o + lp) '.';
  for k = 0 to ln - 1 do
    Bytes.set b (o + lp + 1 + k) (Char.lowercase_ascii name.[k])
  done;
  Bytes.unsafe_to_string b

(* The first character encodes the element type, so the instance
   prefix goes after it: MN1 in instance x1 -> "mx1.mn1". *)
let element_name ~prefix name =
  if prefix = "" then name
  else dotted ~typed:true prefix name

(* Case-insensitive name equality against a lower-case [port]. *)
let rec same_from port n k =
  k = String.length n
  || (Char.lowercase_ascii n.[k] = port.[k] && same_from port n (k + 1))

let is_port port n = String.length port = String.length n && same_from port n 0

(* The actual node bound to body node [n] when [n] names a port; a
   repeated port name binds its last actual. *)
let rec port_actual n ports actual =
  match (ports, actual) with
  | port :: ports, a :: actual -> (
      match port_actual n ports actual with
      | Some _ as later -> later
      | None -> if is_port port n then Some a else None)
  | _ -> None

let rec emit_rcard st defs ~depth ~prefix ~map_node elements r =
  match r with
  | R_two { kind; rname; n1; n2; value } ->
      let name = element_name ~prefix rname in
      let n1 = map_node n1 and n2 = map_node n2 in
      let e =
        match kind with
        | `R -> Circuit.resistor name n1 n2 value
        | `C -> Circuit.capacitor name n1 n2 value
        | `L -> Circuit.inductor name n1 n2 value
      in
      elements := e :: !elements
  | R_src { kind; rname; np; nn; wave; ac } ->
      let name = element_name ~prefix rname in
      let np = map_node np and nn = map_node nn in
      let e =
        match kind with
        | `V -> Circuit.vsource ~ac name np nn wave
        | `I -> Circuit.isource ~ac name np nn wave
      in
      elements := e :: !elements
  | R_fet { rname; d; g; s; model; length } ->
      elements :=
        Circuit.cnfet_model ~length (element_name ~prefix rname)
          ~drain:(map_node d) ~gate:(map_node g) ~source:(map_node s) model
        :: !elements
  | R_inst { rname; nodes; sub; ienv; sig_; rat } ->
      if depth >= 20 then fail st rat "subcircuit nesting deeper than 20";
      Obs.incr c_instances;
      let actual = List.map map_node nodes in
      let child_prefix =
        if prefix = "" then lc rname else element_name ~prefix rname
      in
      let map_child n =
        if Circuit.is_ground n then n
        else
          match port_actual n sub.ports actual with
          | Some mapped -> mapped
          | None -> dotted ~typed:false child_prefix n
      in
      List.iter
        (emit_rcard st defs ~depth:(depth + 1) ~prefix:child_prefix
           ~map_node:map_child elements)
        (resolve_body st defs sub ienv sig_)

(* ------------------------------------------------------------------ *)
(* Directives and the main walk                                        *)
(* ------------------------------------------------------------------ *)

(* Each item with the location of its token, so that resolving it
   against the circuit ([check_print]) can point at it. *)
let parse_print st tokens =
  List.map
    (fun tok ->
      let item =
        match call_form tok.text with
        | "v", [ node ] -> Print_v (lc node)
        | "i", [ src ] -> Print_i (lc src)
        | "id", [ dev ] -> Print_id (lc dev)
        | _ ->
            fail st tok.at
              "bad print item %S (use v(node), i(vsrc) or id(device))" tok.text
      in
      (item, tok.at))
    tokens

let element_kind = function
  | Circuit.Resistor _ -> "a resistor"
  | Circuit.Capacitor _ -> "a capacitor"
  | Circuit.Inductor _ -> "an inductor"
  | Circuit.Vsource _ -> "a voltage source"
  | Circuit.Isource _ -> "a current source"
  | Circuit.Cnfet _ -> "a CNFET"

(* A print item must name what the finished circuit has: a node for
   v(), a voltage source or inductor (the elements with a branch
   current) for i(), a CNFET for id() — and an id() item no .ac
   analysis, whose phasor tables have no drain-current column. *)
let check_print st circuit ~has_ac (item, at) =
  match item with
  | Print_v n -> (
      match Circuit.node_index circuit n with
      | _ -> ()
      | exception Not_found -> fail st at "unknown node %S in v(%s)" n n)
  | Print_i name -> (
      match Circuit.find circuit name with
      | Some (Circuit.Vsource _ | Circuit.Inductor _) -> ()
      | Some e ->
          fail st at "%s is %s, not a voltage source or inductor, in i(%s)"
            name (element_kind e) name
      | None -> fail st at "unknown element %S in i(%s)" name name)
  | Print_id name -> (
      match Circuit.find circuit name with
      | Some (Circuit.Cnfet _) ->
          if has_ac then
            fail st at
              "id(%s) cannot be printed by an .ac analysis (print v() or i() \
               items there)"
              name
      | Some e ->
          fail st at "%s is %s, not a CNFET, in id(%s)" name (element_kind e)
            name
      | None -> fail st at "unknown element %S in id(%s)" name name)

let parse_param st env ~at tokens =
  let tokens = glue_eq tokens in
  if tokens = [] then fail st at ".param needs name=expr assignments";
  (* on a .param card a token without '=' can only be the continuation
     of the previous expression ("vdd = 0.5 + 0.1"), so stitch it back
     on; the next '='-bearing token starts the next assignment *)
  let assignments =
    List.fold_left
      (fun acc o ->
        let tok = o.tok in
        if has_eq tok then o :: acc
        else
          match acc with
          | prev :: rest ->
              { prev with tok = { prev.tok with text = prev.tok.text ^ " " ^ tok.text } }
              :: rest
          | [] -> fail st tok.at "expected name=expr, got %S" tok.text)
      [] tokens
    |> List.rev
  in
  List.iter
    (fun o ->
      let key, v, vat = split_kv st o in
      if not (is_ident_name key) then
        fail st o.tok.at "bad parameter name %S" key;
      env := Env.add key (eval_text st !env ~at:vat ~coloff:0 v) !env)
    assignments

(* SPICE treats the first line as the title unless it looks like a
   card we recognise. *)
let looks_like_card l =
  match (lc l).[0] with
  | '.' -> true
  (* element cards have at least a name and three operands *)
  | 'r' | 'c' | 'l' | 'v' | 'i' | 'm' | 'x' ->
      let fields =
        String.split_on_char ' '
          (String.map (fun c -> if c = '\t' || c = ',' then ' ' else c) l)
        |> List.filter (fun s -> s <> "")
      in
      List.length fields >= 4
  | _ -> false

(* Locate the title: first non-blank, non-comment physical line of the
   entry file, consumed only when it does not look like a card. *)
let find_title lines =
  let n = Array.length lines in
  let rec go i =
    if i >= n then (None, n)
    else
      let t = String.trim (strip_comment lines.(i)) in
      if t = "" || t.[0] = '*' then go (i + 1)
      else if looks_like_card t then (None, i)
      else (Some t, i + 1)
  in
  go 0

(* The top-level cards in order: directives update the parameter
   binding and add analyses and print items; an element card emits its
   elements (an instance card its whole expansion) onto [elements],
   newest first, and then [emitted] sees the card's head token.  Returns
   the analyses and the print items, in deck order. *)
let walk st defs top ~elements ~emitted =
  let env = ref Env.empty in
  let analyses = ref [] and prints = ref [] in
  let ended = ref false in
  List.iter
    (fun (card : card) ->
      if not !ended then begin
        match card_tokens card with
        | [] -> ()
        | head :: args as toks -> begin
            let h = lc head.text in
            match h.[0] with
            | '.' -> begin
                let num tok = value_of st !env tok in
                match (h, args) with
                | ".end", _ -> ended := true
                | ".op", _ -> analyses := Op :: !analyses
                | ".param", _ -> parse_param st env ~at:head.at args
                | ".dc", [ src; a; b; s ] ->
                    analyses :=
                      Dc_sweep
                        {
                          source = lc src.text;
                          start = num a;
                          stop = num b;
                          step = num s;
                        }
                      :: !analyses
                | ".dc", _ ->
                    fail st head.at ".dc needs: .dc SRC start stop step"
                | ".tran", [ ts; tstop ] ->
                    analyses :=
                      Tran { tstep = num ts; tstop = num tstop } :: !analyses
                | ".tran", _ -> fail st head.at ".tran needs: .tran tstep tstop"
                | ".ac", [ kind; n; fstart; fstop ] when lc kind.text = "dec"
                  ->
                    analyses :=
                      Ac_sweep
                        {
                          per_decade = int_of_float (num n);
                          fstart = num fstart;
                          fstop = num fstop;
                        }
                      :: !analyses
                | ".ac", _ ->
                    fail st head.at
                      ".ac needs: .ac dec <points/decade> <fstart> <fstop>"
                | ".print", items -> prints := !prints @ parse_print st items
                | _ -> fail st head.at "unknown directive %s" h
              end
            | 'r' | 'c' | 'l' | 'v' | 'i' | 'm' | 'x' ->
                emit_rcard st defs ~depth:0 ~prefix:"" ~map_node:Fun.id
                  elements
                  (resolve_card st defs !env toks);
                emitted head
            | _ -> fail st head.at "unknown card %S" head.text
          end
      end)
    top;
  (List.rev !analyses, !prints)

(* Where the element at [index] (from 0, in emission order) came from:
   the head of the top-level card that emitted it, found by walking the
   cards again and counting.  Only a rejected circuit pays for this. *)
let element_card st defs top index =
  let exception Found of loc in
  let elements = ref [] and count = ref 0 in
  let emitted (head : token) =
    count := !count + List.length !elements;
    elements := [];
    if !count > index then raise (Found head.at)
  in
  match walk st defs top ~elements ~emitted with
  | _ -> None
  | exception Found at -> Some at

let parse ?(file = "<deck>") text =
  Cnt_obs.Obs.span "spice.parse" @@ fun () ->
  let st = { sources = Hashtbl.create 4; file_order = [] } in
  let lines = register_source st file text in
  let title_opt, from = find_title lines in
  let cards = ref [] in
  lex_lines st ~stack:[ file ] ~file ~lines ~from (fun c ->
      cards := c :: !cards);
  let cards = List.rev !cards in
  if title_opt = None && cards = [] then fail_nowhere "empty netlist";
  let title = Option.value title_opt ~default:"untitled" in
  let defs, top = extract_subckts st cards in
  let elements = ref [] in
  let analyses, prints = walk st defs top ~elements ~emitted:ignore in
  let circuit =
    match Circuit.create (List.rev !elements) with
    | circuit -> circuit
    | exception (Circuit.Bad_circuit { element = Some k; message } as e) -> (
        match element_card st defs top k with
        | Some at -> fail st at "%s" message
        | None -> raise e)
  in
  let has_ac = List.exists (function Ac_sweep _ -> true | _ -> false) analyses in
  List.iter (check_print st circuit ~has_ac) prints;
  {
    title;
    circuit;
    analyses;
    prints = List.map fst prints;
    files = List.rev st.file_order;
  }

let parse_result ?file text =
  match parse ?file text with
  | deck -> Ok deck
  | exception Parse_error err -> Error (Diag.Parse err)
  | exception Circuit.Bad_circuit { message; _ } -> Error (Diag.Bad_deck message)
