(** Pluggable device-model tier: the circuit-ready model every CNFET
    backend exposes to the circuit layer, the table kernel the batched
    assembly evaluates devices through, plus the registry that names
    backends for deck cards ([model=...]), run overrides
    ([--model] / [CNT_MODEL]) and per-request server config.

    The MNA compiler, the batched gather/eval/scatter assembly and the
    manifest/export layers consume only this interface; concrete
    physics ({!Cnt_model}, {!Vs_model}) plugs in through {!register}
    and a range kernel per backend.  Two backends ship in-tree: ["piecewise"]
    (the paper's Model 1/Model 2, the reference backend — bitwise
    identical through this interface to the direct calls it replaced)
    and ["vs"] (the virtual-source ballistic model of Lee et al.).
    See [docs/MODELS.md] for the contract and a walkthrough of adding a
    backend. *)

open Cnt_physics

type polarity = Cnt_model.polarity =
  | N_type
  | P_type

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t
(** A circuit-ready device model. *)

val backend : t -> string
(** Registry name of the backend this model came from. *)

val identity : t -> string
(** Canonical identity string (starts with a backend tag, floats in
    hex).  Everything keyed on a model (manifests, for one) must use
    it; equal identity means interchangeable models. *)

val polarity : t -> polarity
val device : t -> Device.t

val card : t -> (string * string) list
(** The canonical resolved card attributes (including ["model"]), in
    plain float syntax.  {!remodel} re-parses these under another
    backend; backends ignore keys they don't know. *)

val ids : t -> vgs:float -> vds:float -> float
(** Drain current, A.  Negative for p-type devices under positive
    bias. *)

val small_signal : t -> vgs:float -> vds:float -> float * float * float
(** [(I_DS, gm, gds)] at a bias point: the current and its closed-form
    derivatives [dI/dV_GS], [dI/dV_DS] (A/V) from one evaluation — the
    backend's range kernel on a one-row range, so it agrees bitwise
    with the assembly's values ({!eval}) by construction.  Every backend
    supplies its conductances in closed form; finite differences live
    only in the test oracle. *)

val gm : t -> vgs:float -> vds:float -> float
(** Transconductance, the second component of {!small_signal}. *)

val gds : t -> vgs:float -> vds:float -> float
(** Output conductance, the third component of {!small_signal}. *)

val intrinsic_caps : t -> length:float -> (float * float) option
(** Meyer-style [(c_gs, c_gd)] intrinsic terminal capacitances for a
    tube of [length] metres; [None] when [length <= 0]. *)

val as_piecewise : t -> Cnt_model.t option
(** The underlying piecewise model, for piecewise-only consumers
    (the netlist writer, RMS oracles).  [None] for other backends. *)

(** {1 Table kernels}

    The batched assembly keeps its CNFETs in a structure-of-arrays
    table: bias points and outputs in Bigarray columns, one row per
    device.  A {!kernel} cuts the table's rows into maximal runs of
    consecutive same-backend rows (the table keeps its order) and {!eval}
    makes one range-kernel call per run ({!Cnt_model.eval_range},
    {!Vs_model.eval_range}).  Floats cross into a backend only through
    the columns, so a refill allocates nothing per device. *)

type kernel
(** Per-workspace evaluation state for a device table: the runs and
    their backend scratch (the piecewise backend keeps one solver plan
    per row).  Keep one per cloned system; never share a kernel
    between domains evaluating concurrently. *)

val kernel : t array -> kernel
(** [kernel models]: row [k] of the table is evaluated by
    [models.(k)]. *)

val eval :
  kernel ->
  fault_i0:bool ->
  skip:Bytes.t ->
  vgs:vec ->
  vds:vec ->
  i0:vec ->
  gm:vec ->
  gds:vec ->
  unit
(** Evaluate every row whose byte in [skip] is ['\000']: slot [k] of
    [i0]/[gm]/[gds] gets the {!small_signal} triple of row [k]'s model
    at slot [k] of [vgs]/[vds], bitwise.  A row flagged in [skip] keeps
    its output cells (the bias bypass of [docs/ASSEMBLY.md]).
    [fault_i0] is the [Fault.Nan_eval] site: every evaluated bias
    point is evaluated as usual and only the currents written to [i0]
    become NaN. *)

(** {1 Registry} *)

type backend_info = {
  name : string;  (** registry name, used in [model=] / [--model] *)
  doc : string;
  params : (string * string) list;  (** card attribute schema: key, doc *)
}

val register :
  backend_info ->
  (polarity:polarity ->
  number:(string -> float) ->
  (string * string) list ->
  (t, string) result) ->
  unit
(** Register a backend.  The builder receives the card's key=value
    attributes and a SPICE number parser (which may raise on malformed
    input); it must resolve defaults, memoise equal cards to the
    physically same [t] (see {!of_card}), and return [Error] for
    invalid parameters.  Raises [Invalid_argument] on a duplicate
    name. *)

val backends : unit -> backend_info list
(** Registered backends, in registration order. *)

val find : string -> backend_info option
val backend_names : unit -> string
(** Comma-separated registered names, for error messages. *)

val of_card :
  ?backend:string ->
  polarity:polarity ->
  number:(string -> float) ->
  (string * string) list ->
  (t, string) result
(** Build (or fetch the memoised) model for a device card.  The
    backend is [?backend] when given, else the card's [model=]
    attribute (["1"]/["2"] select the piecewise backend for deck
    compatibility), else ["piecewise"].  Construction is memoised on
    the canonical card, so equal cards share one physical model. *)

val remodel : t -> backend:string -> (t, string) result
(** The same device card rebuilt under another backend (identity when
    the backend already matches).  Backend-specific attributes the
    target doesn't know are ignored. *)

val of_piecewise : ?card:(string * string) list -> Cnt_model.t -> t
(** Wrap a concrete piecewise model (programmatic construction,
    {!Model_io} files).  Every evaluation delegates 1:1, so behaviour
    is bitwise-identical to calling {!Cnt_model} directly.  Without
    [card], a card is synthesised from the device geometry — enough to
    {!remodel} onto another backend, but remodelling {e back} to
    piecewise then yields a stock Model-2 fit, not the original
    spec. *)

val of_vs : ?card:(string * string) list -> Vs_model.t -> t
(** Wrap a concrete virtual-source model. *)

(** {1 Run-level override}

    The [--model]/[CNT_MODEL] override forces every CNFET of a deck
    onto one backend before analysis.  An empty [CNT_MODEL] counts as
    unset so test harnesses can neutralise the variable. *)

val default_override : unit -> string option
(** The ambient backend override: the last {!set_default_override} if
    any, else [CNT_MODEL] (read once). *)

val set_default_override : string option -> unit
