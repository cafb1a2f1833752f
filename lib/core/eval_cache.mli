(** Memoised bias-point evaluation for circuit-ready CNFET models.

    The closed-form piecewise solve already makes one bias-point
    evaluation cheap; this layer makes the {e repeated} evaluations
    that dominate circuit workloads (DC-sweep warm starts re-evaluating
    the previous solution, [id()] prints re-evaluating solved operating
    points, characterisation corners sharing grids) nearly free by
    caching [(V_SC, I_DS)] per device against the bias tuple.  The
    closed-form [gm]/[gds] of a bias point derive from its cached
    [V_SC], so a Newton stencil costs one lookup.

    A store is {e per-model} — temperature and Fermi level are fixed by
    the owning device, so the key is the oriented [(V_GS, V_DS)] pair.
    Keys are the raw float bit patterns by default ([quantum = 0]):
    a hit returns exactly the value a scalar evaluation would have
    produced, so results are bitwise-identical with the cache on or
    off.  A positive [quantum] snaps both voltages to the grid
    [round (v / quantum) * quantum] {e before} solving, trading
    exactness for a higher hit rate; results then depend only on the
    quantised bias, never on cache state or evaluation order, so they
    remain deterministic at any job count.  See [docs/CACHING.md].

    Each store shards into per-slot caches indexed by
    [Cnt_obs.Obs.current_slot] — the same slots [Cnt_par.Pool] binds
    its worker domains to — so pool tasks never share a cache line and
    no locking exists on the hit path. *)

type config = {
  size : int;  (** entries per slot cache; [<= 0] disables caching *)
  quantum : float;  (** key quantisation step in volts; [0] = exact keys *)
}

val disabled : config
(** [{ size = 0; quantum = 0.0 }]. *)

val config_of_string : string -> (config, string) result
(** Parse ["size"] or ["size:quantum"] — the spelling of the
    [--cache] flag and the [CNT_CACHE] environment variable.  Size must
    be a non-negative integer, quantum a non-negative float. *)

val config_to_string : config -> string

val default_config : unit -> config
(** The ambient configuration new models adopt: the last
    {!set_default}, else [CNT_CACHE] when set (raises
    [Invalid_argument] on a malformed value), else {!disabled}. *)

val set_default : config -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** misses that displaced a live entry *)
}

type store

val create : ?identity:string -> config -> store
(** A fresh store.  Capacity is rounded up to a power of two.
    [identity] — the owning device model's identity string — is folded
    into the line-index hash as a stable salt so stores of distinct
    models never share line geometry.  It cannot change values: with
    [quantum = 0] a hit replays an exact-key solve, and with
    [quantum > 0] values are pure functions of the snapped bias. *)

val config : store -> config
val enabled : store -> bool

val quantise : store -> float -> float
(** The key quantisation the store applies, exposed so batched kernels
    can pre-snap a whole grid; identity when disabled or exact-keyed.
    Idempotent. *)

val find_or_add :
  store ->
  vgs:float ->
  vds:float ->
  (vgs:float -> vds:float -> float * float) ->
  float * float
(** [(v_sc, i_ds)] for the (quantised) bias, from the calling slot's
    cache when present, else from [compute] (invoked with the quantised
    bias) and stored.  When the store is disabled this is exactly
    [compute ~vgs ~vds]. *)

val stats : store -> stats
(** Aggregate hit/miss/eviction counts across every slot cache.  Read
    it outside parallel regions.  The same counts also feed the
    process-wide [eval_cache.hits]/[misses]/[evictions] [Cnt_obs]
    counters shown by [--profile]. *)

val clear : store -> unit
(** Drop every entry and zero the statistics.  Must not run while pool
    workers are evaluating through the store. *)
