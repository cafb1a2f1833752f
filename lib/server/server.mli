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

val listen_addr : t -> listen
