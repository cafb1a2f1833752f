(** Parser for a small SPICE-like netlist dialect with CNFET device
    cards, [.param] arithmetic expressions, [.include] and
    parameterized [.subckt] hierarchy.  See the implementation header
    and docs/NETLIST.md for the accepted grammar. *)

type loc = Diag.source_loc = { file : string; line : int; col : int }
(** 1-based source position; for '+'-continued cards the first
    physical line of the card. *)

type error = Diag.located = {
  loc : loc option;
  message : string;
  excerpt : string option;
}
(** What went wrong and where; [excerpt] is a caret-style rendering of
    the offending source line. *)

exception Parse_error of error

type print_item =
  | Print_v of string  (** [v(node)] *)
  | Print_i of string  (** [i(vsource)] *)
  | Print_id of string  (** [id(cnfet)]: drain current of a device *)

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
  files : string list;
      (** every file the deck pulled in: the entry file first, then
          [.include]d files in inclusion order *)
}

val eval_expr :
  ?params:(string * float) list -> string -> (float, string) result
(** Evaluate one arithmetic expression under a parameter binding:
    [+ - * / ^] with the usual precedence ([^] right-associative and
    tighter than unary minus), parentheses, engineering suffixes on
    literals (f p n u m k meg g t; m = milli, meg = mega), functions
    (sqrt exp ln log log10 abs min max pow) and the constant [pi].
    Accepts bare, [{...}] and ['...'] spellings. *)

val parse : ?file:string -> string -> deck
(** Parse a netlist text.  [file] (default ["<deck>"]) names the text
    in locations and resolves relative [.include] paths.  Raises
    {!Parse_error} with a precise location and excerpt, also for an
    element the finished circuit rejects (a duplicate name, a value
    out of range: located at the top-level card that emitted it), and
    {!Circuit.Bad_circuit} for a fault no card causes (no element
    connects to ground). *)

val parse_result : ?file:string -> string -> (deck, Diag.error) result
(** {!parse} with its failures as the errors every front end reports:
    [Diag.Parse] for a located error, [Diag.Bad_deck] for a deck-level
    one.  Both exit 2. *)
