(** The [cntd] daemon core: accept loop, per-connection handler
    threads, and a single global run mutex serialising engine
    execution.  The daemon admits many connections but runs one deck
    at once, because the {!Cnt_obs.Progress} sink and the compile-cache
    hit counter are process-wide: the mutex keeps each request's
    progress frames and cache-hit reading its own.

    Cross-request cache sharing: a {!Deck_cache} keeps one canonical
    parsed deck per content hash, and
    {!Cnt_spice.Mna.enable_compile_cache} shares symbolic compilations
    keyed on those canonical circuit values.  See
    [docs/SERVER.md] for the wire protocol and operational notes. *)

open Cnt_spice

(** {1 Listen addresses} *)

type listen =
  | Unix_path of string  (** Unix-domain socket path *)
  | Tcp of string * int

val listen_of_string : string -> (listen, string) result
(** ["tcp:HOST:PORT"] is TCP; anything else is a Unix socket path. *)

val listen_to_string : listen -> string

(** {1 Configuration} *)

type config = {
  listen : listen;
  base : Engine.config;
      (** per-request defaults; a request's [config] object overrides
          field-wise *)
  jobs_budget : int;
      (** read by nothing: kept only because cnt-bench still sets it,
          and goes once cnt-bench stops *)
  max_request_bytes : int;
      (** request-line byte cap; an oversized line gets a structured
          error and the connection is dropped (the stream cannot be
          resynced) *)
  deck_cache_entries : int;
  compile_cache_entries : int;  (** 0 disables the compile cache *)
  verbose : bool;  (** per-connection/request logging on stderr *)
}

val default_config : listen:listen -> config
(** Engine defaults, 8 MiB request cap, 64-entry caches, quiet. *)

(** {1 Line framing}

    cnt-rpc/1 frames are newline-terminated lines; both ends of a
    connection read and write them through these. *)

val write_line : Unix.file_descr -> string -> unit
(** Write [line] and then its newline, in full: two writes, never a
    copy of the line with the newline appended.  Raises
    [Unix.Unix_error] when the peer is gone. *)

type reader
(** A line reader on one socket, with one read buffer for the
    connection's life: 1 KiB at first, so a short line never reaches
    the major heap, doubled when a longer line needs it. *)

val reader : Unix.file_descr -> reader

type read_outcome =
  | Line of string  (** the next line, without its [\n] or [\r\n] *)
  | Eof  (** end of stream or a read error; a partial last line is dropped *)
  | Oversized  (** the line exceeds the cap; the stream cannot resync *)

val read_line : reader -> max_bytes:int -> read_outcome
(** The next line, at most [max_bytes] long, copied out of the read
    buffer once however many reads it took. *)

(** {1 Lifecycle} *)

type t

val start : config -> t
(** Bind, listen and return immediately; connections are served on
    background threads.  A stale Unix socket file left by a dead daemon
    is replaced; an existing {e non-socket} file at the listen path
    raises [Invalid_argument].  Ignores [SIGPIPE] process-wide and
    enables the {!Cnt_spice.Mna} compile cache. *)

val stop : ?grace_s:float -> ?drain_s:float -> t -> unit
(** Graceful drain: stop accepting, let connections with a request in
    flight finish it (up to [drain_s], default 30 s), give idle
    connections [grace_s] (default 1 s) before shutting their read
    side, then return.  Idempotent.  The [cntd] binary calls this on
    [SIGTERM]/[SIGINT]. *)

val requests_served : t -> int
(** Requests answered with a [result] frame, [ok] or [error]: decks
    that fail, bad configs and protocol errors count; pings do not. *)

val listen_addr : t -> listen
