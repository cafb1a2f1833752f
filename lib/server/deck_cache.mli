(** The daemon's deck cache: one canonical parsed {!Cnt_spice.Parser}
    deck per (content MD5, device-model override) pair.

    The canonical value is the anchor for cross-request sharing:
    {!Cnt_spice.Mna}'s compile cache keys on the circuit value's
    physical identity, so every request whose deck text hashes to a
    cached entry reuses its symbolic compilation as well as the parse.
    A request's [model] override
    rewrites every CNFET, so overrides are part of the key and the
    remodel runs once, at insert — two requests differing only in model
    never share an entry.  Thread-safe; FIFO eviction; parse failures
    are never cached. *)

type entry = {
  md5 : string;  (** hex MD5 of the exact deck text *)
  model : string option;  (** the override this deck was staged under *)
  file : string option;
      (** the client's path hint — part of the key because it anchors
          [.include] resolution and error locations *)
  deck : Cnt_spice.Parser.deck;
  mutable runs : int;  (** requests served through this entry *)
}

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] defaults to 64 (raises [Invalid_argument] below 1). *)

val find_or_parse :
  ?model:string ->
  ?file:string ->
  t ->
  string ->
  (entry * bool, Cnt_spice.Diag.error) result
(** [(entry, was_hit)] for the deck text under the given model
    override, parsing, remodelling ({!Cnt_spice.Circuit.remodel}) and
    inserting on miss.  [file] names the text in error locations and
    anchors relative [.include] paths.  [Error (Parse _)] (with the
    location) when the text does not parse, [Error (Bad_deck _)] when
    a device card is rejected by the override's backend.  Callers must
    validate the backend name first — an unknown override over a deck
    with no CNFETs is not detected here. *)

val stats : t -> int * int * int
(** [(live_entries, hits, misses)]. *)
