(* Piecewise-polynomial fitting of the mobile charge curve Q_S(V_SC).

   This is the paper's section IV: the theoretical charge curve (an
   integral of the DOS against the Fermi distribution) is replaced by
   a few polynomial pieces of degree <= 3, joined with C1 continuity
   and clamped to exactly zero above the last boundary.  Boundaries
   are expressed as offsets from E_F/q, because the theoretical curve
   is (to within the tiny N0 term) a function of V_SC - E_F/q alone.

   The fit is a single equality-constrained linear least-squares
   problem over the concatenated coefficients of all non-zero pieces:
     - value and slope of adjacent pieces agree at interior boundaries,
     - value and slope of the last piece vanish at the final boundary
       (C1 junction with the zero region).
   Model 1 then has one free parameter and Model 2 three.

   Following the paper's "purely numerical" methodology, the boundary
   offsets themselves are optimised to minimise the RMS deviation from
   the theoretical curves; {!optimise_boundaries} does this for one
   operating condition. *)

open Cnt_numerics
open Cnt_physics

(* How samples are weighted in the least-squares objective.  [Relative]
   weighting (1/(|Q| + eps)^2 with eps a fraction of the curve maximum)
   approximates minimising the *relative* deviation, which is what the
   paper's RMS-percentage metric rewards: it keeps the exponential tail
   accurate where absolute charges are small but currents still matter. *)
type weighting =
  | Uniform
  | Relative of float (* floor as a fraction of max |Q| *)

(* The final (rightmost) region.  The paper clamps it to exactly zero,
   which is correct when E_F sits well below the band edge (N0
   negligible).  [Asymptotic] instead clamps to the true limit
   -q N0 / 2 of the charge curve, still a degree-0 polynomial, which
   keeps the closed-form solve and fixes the E_F = 0 operating point
   where N0 is not negligible. *)
type tail =
  | Zero
  | Asymptotic

type spec = {
  offsets : float array; (* boundary offsets from E_F/q, strictly ascending *)
  degrees : int array; (* degree of each non-zero piece; length = offsets *)
  window : float; (* fitted range extends this far below the first boundary *)
  samples_per_piece : int;
  weighting : weighting;
  tail : tail;
}

let spec ?(window = 0.35) ?(samples_per_piece = 80) ?(weighting = Relative 0.05)
    ?(tail = Asymptotic) ~offsets ~degrees () =
  let k = Array.length offsets in
  if k = 0 then invalid_arg "Charge_fit.spec: need at least one boundary";
  if Array.length degrees <> k then
    invalid_arg "Charge_fit.spec: need exactly one degree per boundary";
  for i = 0 to k - 2 do
    if offsets.(i + 1) <= offsets.(i) then
      invalid_arg "Charge_fit.spec: offsets must be strictly ascending"
  done;
  Array.iter
    (fun d ->
      if d < 1 || d > 3 then
        invalid_arg
          "Charge_fit.spec: piece degrees must be between 1 and 3 (closed-form \
           solvability)")
    degrees;
  if window <= 0.0 then invalid_arg "Charge_fit.spec: window must be positive";
  if samples_per_piece < 4 then
    invalid_arg "Charge_fit.spec: need at least 4 samples per piece";
  {
    offsets = Array.copy offsets;
    degrees = Array.copy degrees;
    window;
    samples_per_piece;
    weighting;
    tail;
  }

let with_offsets s offsets =
  spec ~window:s.window ~samples_per_piece:s.samples_per_piece
    ~weighting:s.weighting ~tail:s.tail ~offsets ~degrees:s.degrees ()

(* Paper Model 1 as printed: linear / quadratic / zero with boundaries
   at E_F/q - 0.08 V and E_F/q + 0.08 V (fig. 2). *)
let model1_paper_spec =
  spec ~tail:Zero ~offsets:[| -0.08; 0.08 |] ~degrees:[| 1; 2 |] ()

(* Paper Model 2 as printed: linear / quadratic / cubic / zero with
   boundaries at E_F/q - 0.28 V, - 0.03 V and + 0.12 V (fig. 3). *)
let model2_paper_spec =
  spec ~tail:Zero ~offsets:[| -0.28; -0.03; 0.12 |] ~degrees:[| 1; 2; 3 |] ()

(* Boundaries re-optimised (the paper's own methodology) against this
   library's exactly-integrated reference curves at the paper's central
   condition (T = 300 K, E_F = -0.32 eV); see EXPERIMENTS.md.  The
   shift relative to the printed values reflects the sharper van Hove
   knee of exact integration. *)
let model1_spec =
  spec ~window:0.15 ~offsets:[| 0.0006; 0.0837 |] ~degrees:[| 1; 2 |] ()

let model2_spec =
  spec ~window:0.25 ~offsets:[| -0.2193; -0.0146; 0.1224 |] ~degrees:[| 1; 2; 3 |] ()

type fit_result = {
  approx : Piecewise.t; (* fitted Q_S(V_SC), C/m *)
  charge_rms : float; (* relative RMS error vs theory over the window *)
  sample_xs : float array; (* abscissae used for the fit *)
  sample_ys : float array; (* theoretical charge at those abscissae *)
}

(* A precomputed theory curve: strictly ascending abscissae (V_SC) with
   the theoretical Q_S at each.  Sampling the theory is the expensive
   part of fitting (one adaptive quadrature per point), so boundary
   optimisation reuses one dense curve across hundreds of candidate
   fits. *)
type theory_curve = {
  t_xs : float array;
  t_ys : float array;
}

let sample_theory ?(points = 400) profile ~lo ~hi =
  if hi <= lo then invalid_arg "Charge_fit.sample_theory: empty range";
  let n0 = Charge.equilibrium profile in
  let t_xs = Grid.linspace lo hi points in
  { t_xs; t_ys = Array.map (fun v -> Charge.qs ~n0 profile v) t_xs }

(* Subset of a curve within [lo, hi]. *)
let curve_between curve ~lo ~hi =
  let keep = ref [] in
  Array.iteri
    (fun i x -> if x >= lo -. 1e-12 && x <= hi +. 1e-12 then keep := i :: !keep)
    curve.t_xs;
  let idx = Array.of_list (List.rev !keep) in
  ( Array.map (fun i -> curve.t_xs.(i)) idx,
    Array.map (fun i -> curve.t_ys.(i)) idx )

(* Fit the pieces to samples by constrained least squares.  [bounds]
   are the absolute boundary positions (fermi + offsets); [tail_value]
   is the constant of the final region (0 in the paper's models). *)
let fit_samples ~bounds ~degrees ~weighting ~tail_value xs ys =
  let k = Array.length bounds in
  let piece_of x =
    let rec go i = if i >= k then k else if x <= bounds.(i) then i else go (i + 1) in
    go 0
  in
  (* coefficient layout: piece i occupies a block of degrees.(i)+1 *)
  let block_start = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    block_start.(i + 1) <- block_start.(i) + degrees.(i) + 1
  done;
  let n_unknowns = block_start.(k) in
  (* ignore samples beyond the last boundary: the zero piece is exact *)
  let inside = ref [] in
  Array.iteri (fun i x -> if piece_of x < k then inside := i :: !inside) xs;
  let sel = Array.of_list (List.rev !inside) in
  let xs = Array.map (fun i -> xs.(i)) sel in
  let ys = Array.map (fun i -> ys.(i)) sel in
  let n_samples = Array.length xs in
  if n_samples < n_unknowns then
    raise (Fit.Bad_fit "Charge_fit: not enough samples inside the fit window");
  (* per-sample sqrt-weights scaling both the design rows and the rhs *)
  let sqrt_w =
    match weighting with
    | Uniform -> Array.make n_samples 1.0
    | Relative floor_frac ->
        let peak = Stats.max_abs ys in
        let floor_q = Float.max (floor_frac *. peak) 1e-300 in
        Array.map (fun y -> 1.0 /. (Float.abs y +. floor_q)) ys
  in
  let weighted_ys = Array.mapi (fun i y -> sqrt_w.(i) *. y) ys in
  let design = Linalg.Mat.make n_samples n_unknowns 0.0 in
  Array.iteri
    (fun row x ->
      let i = piece_of x in
      for j = 0 to degrees.(i) do
        Linalg.Mat.set design row (block_start.(i) + j)
          (sqrt_w.(row) *. Float.pow x (float_of_int j))
      done)
    xs;
  (* constraints: continuity between pieces, then C1 junction to zero *)
  let constraint_rows = ref [] and targets = ref [] in
  let add_constraint row target =
    constraint_rows := row :: !constraint_rows;
    targets := target :: !targets
  in
  for i = 0 to k - 2 do
    let b = bounds.(i) in
    List.iter
      (fun order ->
        let row = Array.make n_unknowns 0.0 in
        let left = Fit.derivative_row ~degree:degrees.(i) ~order b in
        let right = Fit.derivative_row ~degree:degrees.(i + 1) ~order b in
        Array.iteri (fun j v -> row.(block_start.(i) + j) <- v) left;
        Array.iteri
          (fun j v ->
            row.(block_start.(i + 1) + j) <- row.(block_start.(i + 1) + j) -. v)
          right;
        add_constraint row 0.0)
      [ 0; 1 ]
  done;
  let b_last = bounds.(k - 1) in
  List.iter
    (fun order ->
      let row = Array.make n_unknowns 0.0 in
      let last = Fit.derivative_row ~degree:degrees.(k - 1) ~order b_last in
      Array.iteri (fun j v -> row.(block_start.(k - 1) + j) <- v) last;
      add_constraint row (if order = 0 then tail_value else 0.0))
    [ 0; 1 ];
  let cmat = Linalg.Mat.of_arrays (Array.of_list (List.rev !constraint_rows)) in
  let tvec = Array.of_list (List.rev !targets) in
  let coeffs =
    Fit.constrained_least_squares ~design ~rhs:weighted_ys ~constraints:cmat
      ~targets:tvec
  in
  let pieces =
    Array.init (k + 1) (fun i ->
        if i = k then Polynomial.constant tail_value
        else
          Polynomial.of_coeffs (Array.sub coeffs block_start.(i) (degrees.(i) + 1)))
  in
  (Piecewise.create ~boundaries:bounds ~pieces, xs, ys)

(* The constant of the final region for a given profile and tail
   policy: 0 for the paper's models, -q N0/2 (the true V -> +inf limit
   of Q_S) for the asymptotic generalisation. *)
let tail_value_of profile = function
  | Zero -> 0.0
  | Asymptotic ->
      -0.5 *. Constants.elementary_charge *. Charge.equilibrium profile

let fit ?theory profile s =
  let fermi = profile.Charge.fermi in
  let bounds = Array.map (fun o -> fermi +. o) s.offsets in
  let k = Array.length bounds in
  let lo = bounds.(0) -. s.window and hi = bounds.(k - 1) in
  let curve =
    match theory with
    | Some c -> c
    | None ->
        sample_theory ~points:(s.samples_per_piece * (k + 1)) profile ~lo ~hi
  in
  let xs, ys = curve_between curve ~lo ~hi in
  let approx, xs, ys =
    fit_samples ~bounds ~degrees:s.degrees ~weighting:s.weighting
      ~tail_value:(tail_value_of profile s.tail) xs ys
  in
  let fitted = Array.map (Piecewise.eval approx) xs in
  {
    approx;
    charge_rms = Stats.relative_rms_error ys fitted;
    sample_xs = xs;
    sample_ys = ys;
  }

(* Relative RMS deviation of an approximation from a theory curve over
   the curve's full range (zero region included, so shrinking the last
   boundary cannot hide error). *)
let rms_on_curve approx curve =
  let fitted = Array.map (Piecewise.eval approx) curve.t_xs in
  Stats.relative_rms_error curve.t_ys fitted

(* Relative RMS deviation from freshly sampled theory over a range. *)
let charge_rms_over ?(points = 200) profile approx ~lo ~hi =
  rms_on_curve approx (sample_theory ~points profile ~lo ~hi)

(* Penalised objective of the boundary optimiser: fit the candidate
   boundaries (offsets from [fermi]) against the precomputed theory
   curve and score the RMS over the curve's full range. *)
let objective ~min_gap ~s ~fermi ~tail_value curve offsets =
  let k = Array.length offsets in
  let ascending =
    let rec go i = i >= k - 1 || (offsets.(i + 1) -. offsets.(i) >= min_gap && go (i + 1)) in
    go 0
  in
  if not ascending then 1e9
  else begin
    try
      let bounds = Array.map (fun o -> fermi +. o) offsets in
      let lo = bounds.(0) -. s.window and hi = bounds.(k - 1) in
      let xs, ys = curve_between curve ~lo ~hi in
      let approx, _, _ =
        fit_samples ~bounds ~degrees:s.degrees ~weighting:s.weighting
          ~tail_value xs ys
      in
      rms_on_curve approx curve
    with Fit.Bad_fit _ | Linalg.Singular _ -> 1e9
  end

(* Boundary optimisation for a single operating condition (the paper's
   "purely numerical" boundary placement). *)
let optimise_boundaries ?(min_gap = 0.02) ?(max_iter = 300) profile s =
  let fermi = profile.Charge.fermi in
  let k = Array.length s.offsets in
  let lo = fermi +. s.offsets.(0) -. s.window -. 0.3 in
  let hi = fermi +. s.offsets.(k - 1) +. 0.2 in
  let curve = sample_theory ~points:600 profile ~lo ~hi in
  let tail_value = tail_value_of profile s.tail in
  let best_offsets, best_rms =
    Optimize.nelder_mead ~tol:1e-8 ~max_iter ~initial_step:0.2
      (objective ~min_gap ~s ~fermi ~tail_value curve)
      (Array.copy s.offsets)
  in
  let refined = with_offsets s best_offsets in
  (refined, fit profile refined, best_rms)
