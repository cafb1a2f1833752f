(* Closed-form solution of the self-consistent voltage equation
   (paper eq. 7) for piecewise-polynomial charge curves.

   With Q_S a piecewise polynomial of degree <= 3 and
   Q_D(V) = Q_S(V + V_DS), the residual

     F(V) = C_Sigma V + Q_t - Q_S(V) - Q_D(V)

   is a single polynomial of degree <= 3 on every interval between
   consecutive merged breakpoints {b_i} u {b_i - V_DS}.  F is strictly
   increasing (C_Sigma > 0 and the charge curves are non-increasing),
   so exactly one interval brackets the root, found by scanning the
   breakpoint residuals; the root itself comes from the closed-form
   linear/quadratic/Cardano formulas — no Newton-Raphson iterations
   and no numerical integration, which is the paper's entire point. *)

open Cnt_numerics
module Obs = Cnt_obs.Obs

type t = {
  qs : Piecewise.t; (* source charge vs V_SC, C/m *)
  c_sigma : float; (* F/m *)
  sbs : float array; (* cached copy of the source breakpoints, ascending *)
  scratch_len : int; (* max piece coefficient count, >= 2; sizes plan scratch *)
  neg_pieces : Polynomial.t array;
      (* [Polynomial.neg] of each source piece, precomputed so interval
         records can reference them without re-negating per plan *)
  qpieces : Polynomial.t array; (* the source pieces themselves *)
  sbs_qs : float array;
      (* Q_S at each source breakpoint — the values the plan scan's
         lazy fills would recompute for source-origin merged
         breakpoints, hoisted to construction *)
}

(* Closed-form root evaluations by piece degree, plus the defensive
   bisection rescues — the per-branch cost profile behind the paper's
   no-Newton claim. *)
let c_solves = Obs.counter "scv.solves"
let c_linear = Obs.counter "scv.root_linear"
let c_quadratic = Obs.counter "scv.root_quadratic"
let c_cubic = Obs.counter "scv.root_cardano"
let c_fallback = Obs.counter "scv.fallback_bisection"

(* Always-on process-wide count of bisection rescues.  Unlike the Obs
   counter above it ticks even with telemetry disabled, so convergence
   diagnostics (Cnt_spice strategy trails) can report how many device
   evaluations degenerated during a solve attempt. *)
let fallback_total = ref 0

let fallback_events () = !fallback_total

type stats = {
  vsc : float;
  interval : float * float; (* bracketing interval (may be infinite) *)
  degree : int; (* degree of the polynomial solved *)
  used_fallback : bool; (* true when bisection rescued a degenerate case *)
}

let create ~qs ~c_sigma =
  if c_sigma <= 0.0 then invalid_arg "Scv_solver.create: c_sigma must be positive";
  (* cache the breakpoints ([Piecewise.boundaries] copies on every
     call) and the widest piece, which bounds every residual
     polynomial a plan can build *)
  let sbs = Piecewise.boundaries qs in
  let n = Array.length sbs in
  let scratch_len = ref 2 in
  for k = 0 to n do
    let x =
      if n = 0 then 0.0
      else if k = 0 then sbs.(0) -. 1.0
      else if k = n then sbs.(n - 1) +. 1.0
      else 0.5 *. (sbs.(k - 1) +. sbs.(k))
    in
    let len = Array.length (Piecewise.piece_at qs x) in
    if len > !scratch_len then scratch_len := len
  done;
  {
    qs;
    c_sigma;
    sbs;
    scratch_len = !scratch_len;
    neg_pieces = Array.map Polynomial.neg (Piecewise.pieces qs);
    qpieces = Piecewise.pieces qs;
    sbs_qs = Array.map (fun b -> Piecewise.eval qs b) sbs;
  }

let qs t = t.qs
let c_sigma t = t.c_sigma

(* Merged, sorted, deduplicated breakpoints of Q_S(V) and Q_S(V+vds). *)
let merged_breakpoints t ~vds =
  let bs = Piecewise.boundaries t.qs in
  let shifted = Array.map (fun b -> b -. vds) bs in
  let all = Array.append bs shifted in
  Array.sort compare all;
  let out = ref [] in
  Array.iter
    (fun b ->
      match !out with
      | prev :: _ when Float.abs (b -. prev) <= 1e-15 -> ()
      | _ -> out := b :: !out)
    all;
  Array.of_list (List.rev !out)

let residual t ~qt ~vds v =
  (t.c_sigma *. v) +. qt -. Piecewise.eval t.qs v
  -. Piecewise.eval t.qs (v +. vds)

(* The polynomial form of F on the interval containing [x]. *)
let residual_poly t ~qt ~vds x =
  let open Polynomial in
  let linear = of_coeffs [| qt; t.c_sigma |] in
  let ps = Piecewise.piece_at t.qs x in
  (* piece of the drain curve as a function of V: q_d(V) = p(V + vds) *)
  let pd = Polynomial.shift (Piecewise.piece_at t.qs (x +. vds)) vds in
  add (add linear (neg ps)) (neg pd)

(* Endpoints of interval [k] of the merged-breakpoint partition:
   interval 0 is (-inf, b_0], interval k is (b_{k-1}, b_k], interval n
   is (b_{n-1}, +inf) — with the degenerate no-breakpoint partition
   treated as (0, +inf), matching the historical scan result. *)
let interval_bounds bps k =
  let n = Array.length bps in
  if n = 0 then (0.0, infinity)
  else if k = 0 then (neg_infinity, bps.(0))
  else if k = n then (bps.(n - 1), infinity)
  else (bps.(k - 1), bps.(k))

(* the representative point selects the pieces; it must be strictly
   interior to the interval, because a point sitting exactly on a
   shifted breakpoint can be misclassified by floating-point error
   when re-shifted by vds *)
let[@inline] representative_of ~lo ~hi =
  if Float.is_finite lo && Float.is_finite hi then 0.5 *. (lo +. hi)
  else if Float.is_finite hi then hi -. 1.0
  else lo +. 1.0

(* ------------------------------------------------------------------ *)
(* Closed-form roots into a caller buffer                              *)
(* ------------------------------------------------------------------ *)

(* Real roots of a polynomial of degree <= 3 by the closed-form
   linear, quadratic (cancellation-free) and Cardano (trigonometric
   branch when all three roots are real) formulas, each root polished
   by one Newton step, written ascending into a caller buffer of
   length >= 3.

   These float helpers live in this module, marked [@inline], because
   a float that crosses a module boundary is boxed: the default (dev)
   build compiles every module with [-opaque], so no call into another
   module is ever inlined, and each float argument or result of such a
   call is a fresh heap block.  Within one module the inlined helpers
   keep every coefficient and root in registers. *)

let[@inline] signum x = if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0

let[@inline] cbrt x =
  if x >= 0.0 then Float.pow x (1.0 /. 3.0)
  else -.Float.pow (-.x) (1.0 /. 3.0)

(* One Newton step on [p] from [x], kept only if it does not increase
   |p|, with the value-and-derivative and value Horner passes written
   out. *)
let[@inline] polish p x =
  let v = ref 0.0 and d = ref 0.0 in
  for i = Array.length p - 1 downto 0 do
    d := (!d *. x) +. !v;
    v := (!v *. x) +. Array.unsafe_get p i
  done;
  let v = !v and d = !d in
  if d = 0.0 || not (Float.is_finite (x -. (v /. d))) then x
  else begin
    let x' = x -. (v /. d) in
    let v' = ref 0.0 in
    for i = Array.length p - 1 downto 0 do
      v' := (!v' *. x') +. Array.unsafe_get p i
    done;
    if Float.abs !v' <= Float.abs v then x' else x
  end

let[@inline] roots_linear_into a b buf =
  if a = 0.0 then 0
  else begin
    buf.(0) <- -.b /. a;
    1
  end

let[@inline] roots_quadratic_into a b c buf =
  if a = 0.0 then roots_linear_into b c buf
  else begin
    let disc = (b *. b) -. (4.0 *. a *. c) in
    if disc < 0.0 then 0
    else if disc = 0.0 then begin
      buf.(0) <- -.b /. (2.0 *. a);
      1
    end
    else begin
      let sq = sqrt disc in
      let q = -0.5 *. (b +. (signum b *. sq)) in
      let q = if b = 0.0 then -0.5 *. sq else q in
      let r1 = q /. a and r2 = c /. q in
      if r1 <= r2 then begin
        buf.(0) <- r1;
        buf.(1) <- r2
      end
      else begin
        buf.(0) <- r2;
        buf.(1) <- r1
      end;
      2
    end
  end

(* [compare] on floats, which compiles to a C call on boxed arguments:
   the runtime's own branchless formula (NaN equals NaN and sorts below
   every other float), unboxed. *)
let[@inline] fcompare (f : float) g =
  Bool.to_int (f > g) - Bool.to_int (f < g) + Bool.to_int (f = f)
  - Bool.to_int (g = g)

(* Ascending compare-sort of buf.(0 .. n-1) (n <= 3). *)
let sort3_into buf n =
  if n >= 2 then begin
    if fcompare buf.(0) buf.(1) > 0 then begin
      let t = buf.(0) in
      buf.(0) <- buf.(1);
      buf.(1) <- t
    end;
    if n = 3 then begin
      if fcompare buf.(1) buf.(2) > 0 then begin
        let t = buf.(1) in
        buf.(1) <- buf.(2);
        buf.(2) <- t
      end;
      if fcompare buf.(0) buf.(1) > 0 then begin
        let t = buf.(0) in
        buf.(0) <- buf.(1);
        buf.(1) <- t
      end
    end
  end;
  n

(* Adjacent dedup after [sort3_into]: together, an ascending sort
   that keeps one of each repeated value. *)
let dedup3_into buf n =
  let kept = ref (if n > 0 then 1 else 0) in
  for i = 1 to n - 1 do
    if fcompare buf.(i) buf.(!kept - 1) <> 0 then begin
      buf.(!kept) <- buf.(i);
      incr kept
    end
  done;
  !kept

let[@inline] roots_cubic_into a b c d buf =
  if a = 0.0 then roots_quadratic_into b c d buf
  else begin
    let b = b /. a and c = c /. a and d = d /. a in
    let shift = b /. 3.0 in
    let p = c -. (b *. b /. 3.0) in
    let q = ((2.0 *. b *. b *. b) -. (9.0 *. b *. c)) /. 27.0 +. d in
    let disc = ((q *. q) /. 4.0) +. ((p *. p *. p) /. 27.0) in
    let n =
      if Float.abs p < 1e-300 && Float.abs q < 1e-300 then begin
        buf.(0) <- 0.0;
        1
      end
      else if disc > 0.0 then begin
        let sq = sqrt disc in
        let u = cbrt ((-.q /. 2.0) +. sq) in
        let v = cbrt ((-.q /. 2.0) -. sq) in
        buf.(0) <- u +. v;
        1
      end
      else if disc = 0.0 then begin
        let u = cbrt (-.q /. 2.0) in
        buf.(0) <- 2.0 *. u;
        buf.(1) <- -.u;
        2
      end
      else begin
        let r = sqrt (-.p *. p *. p /. 27.0) in
        let phi = acos (Float.max (-1.0) (Float.min 1.0 (-.q /. (2.0 *. r)))) in
        let m = 2.0 *. sqrt (-.p /. 3.0) in
        buf.(0) <- m *. cos (phi /. 3.0);
        buf.(1) <- m *. cos ((phi +. (2.0 *. Float.pi)) /. 3.0);
        buf.(2) <- m *. cos ((phi +. (4.0 *. Float.pi)) /. 3.0);
        3
      end
    in
    for i = 0 to n - 1 do
      buf.(i) <- buf.(i) -. shift
    done;
    dedup3_into buf (sort3_into buf n)
  end

(* Polished real roots of a trimmed polynomial of degree <= 3 into
   [buf], ascending; returns how many. *)
let real_roots_into p buf =
  let nraw =
    match Array.length p with
    | 0 | 1 -> 0
    | 2 -> roots_linear_into p.(1) p.(0) buf
    | 3 -> roots_quadratic_into p.(2) p.(1) p.(0) buf
    | 4 -> roots_cubic_into p.(3) p.(2) p.(1) p.(0) buf
    | _ ->
        invalid_arg "Scv_solver.real_roots_into: degree exceeds 3"
  in
  for i = 0 to nraw - 1 do
    buf.(i) <- polish p buf.(i)
  done;
  (* the per-degree producers emit <= 3 ascending values; polishing can
     reorder them, so re-sort (duplicates kept) *)
  sort3_into buf nraw

(* ------------------------------------------------------------------ *)
(* The scalar solve                                                    *)
(* ------------------------------------------------------------------ *)

let count_root deg =
  Obs.incr c_solves;
  Obs.incr
    (match deg with
    | 3 -> c_cubic
    | 2 -> c_quadratic
    | _ -> c_linear)

(* Defensive fallback: bisection on a finite cover of the bracketing
   interval; not reached for well-formed monotone charge fits. *)
let bisect_fallback t ~qt ~vds ~lo ~hi =
  Obs.incr c_fallback;
  incr fallback_total;
  let flo = if Float.is_finite lo then lo else hi -. 10.0 in
  let fhi = if Float.is_finite hi then hi else lo +. 10.0 in
  (Rootfind.bisect ~tol:1e-13 (residual t ~qt ~vds) flo fhi).Rootfind.root

(* Closed-form solve of the residual polynomial on one bracketing
   interval.  Both call sites hand over a trimmed polynomial
   (residual_poly normalises; the plan path trims as it builds), so the
   degree read and the trimmed root extraction match the historical
   normalise-then-solve bitwise without the defensive copy.  The plan
   path below runs the same program on its own scratch. *)
let solve_on_interval t ~qt ~vds ~lo ~hi poly =
  let deg = Array.length poly - 1 in
  count_root deg;
  let eps = 1e-9 in
  let rbuf = Array.make 3 0.0 in
  let nr = real_roots_into poly rbuf in
  (* in-interval filter by in-place compaction: [List.filter] order *)
  let nc = ref 0 in
  for i = 0 to nr - 1 do
    let r = Array.unsafe_get rbuf i in
    if r >= lo -. eps && r <= hi +. eps then begin
      Array.unsafe_set rbuf !nc r;
      incr nc
    end
  done;
  let clamp v = Float.min (Float.max v lo) hi in
  let stats vsc used_fallback =
    { vsc; interval = (lo, hi); degree = deg; used_fallback }
  in
  match !nc with
  | 1 -> stats (clamp rbuf.(0)) false
  | 0 -> stats (bisect_fallback t ~qt ~vds ~lo ~hi) true
  | nc ->
      (* multiple closed-form roots landed inside (degenerate shapes);
         keep the one with the smallest residual — the fold starts from
         the first candidate and walks all of them, mirroring the
         historical [List.fold_left] over the full candidate list *)
      let best = ref rbuf.(0) in
      for i = 0 to nc - 1 do
        let r = rbuf.(i) in
        if
          Float.abs (residual t ~qt ~vds r)
          < Float.abs (residual t ~qt ~vds !best)
        then best := r
      done;
      stats (clamp !best) false

let solve_stats t ~qt ~vds =
  let bps = merged_breakpoints t ~vds in
  let n = Array.length bps in
  (* locate the bracketing interval: first breakpoint with F >= 0 *)
  let rec find i =
    if i >= n then n
    else if residual t ~qt ~vds bps.(i) >= 0.0 then i
    else find (i + 1)
  in
  let k = find 0 in
  let lo, hi = interval_bounds bps k in
  let poly = residual_poly t ~qt ~vds (representative_of ~lo ~hi) in
  solve_on_interval t ~qt ~vds ~lo ~hi poly

let solve t ~qt ~vds = (solve_stats t ~qt ~vds).vsc

(* ------------------------------------------------------------------ *)
(* Batched evaluation plans                                            *)
(* ------------------------------------------------------------------ *)

(* Everything in the scalar solve that depends only on (solver, vds) —
   merged breakpoints, the charge-curve values at them, and the source
   and shifted-drain piece polynomials of every interval — hoisted out
   so a whole bias grid at one drain voltage pays for it once.  The
   remaining per-point work is the O(breakpoints) residual scan, one
   fused residual-polynomial build into plan-local scratch and the
   closed-form root.

   Plans are built lazily and cheaply: retargeting only merges the
   breakpoints (a two-pointer merge over the cached sorted source
   breakpoints and their [-vds]-shifted copies — the same ascending
   multiset, the same dedup-against-last-kept rule as the historical
   append+sort); the breakpoint charge values fill on first touch of
   each scan position and the interval records (pieces pre-negated,
   drain piece pre-shifted) on first solve landing in them.  The MNA
   range kernel retargets one plan per device per Newton iteration, so
   retargeting sits on the hot path alongside the solve.

   Each precomputed part is produced by the same floating-point
   program as the scalar path, and the per-point residual
   [(c_sigma * b + qt) - e1 - e2] replays the scalar operation order
   with e1, e2 memoised, so a plan solve is bitwise-equal to [solve] at
   every (qt, vds) — the property test suite pins this.

   Nothing on this path allocates once a plan exists.  Floats reach it
   and leave it only through the plan's own unboxed cells ({!io} and
   the float arrays below), never as arguments or results of a call
   into another module, and the float helpers it calls are inlined
   here (see the root helpers above). *)

(* [Piecewise.piece_index] and [Piecewise.eval] replicated over the
   solver's cached copies of the boundary and piece arrays: the same
   left-inclusive boundary rule and the same Horner program, inlined
   into the plan scan. *)
let[@inline] qs_piece_index t x =
  let bs = t.sbs in
  let nb = Array.length bs in
  let i = ref 0 in
  while !i < nb && not (x <= Array.unsafe_get bs !i) do
    incr i
  done;
  !i

let[@inline] qs_eval t x =
  let p = Array.unsafe_get t.qpieces (qs_piece_index t x) in
  let acc = ref 0.0 in
  for j = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. Array.unsafe_get p j
  done;
  !acc

(* dQ_S/dV by the derivative Horner over the same piece: the sum of
   j p_j x^(j-1). *)
let[@inline] qs_slope t x =
  let p = Array.unsafe_get t.qpieces (qs_piece_index t x) in
  let acc = ref 0.0 in
  for j = Array.length p - 1 downto 1 do
    acc := (!acc *. x) +. (float_of_int j *. Array.unsafe_get p j)
  done;
  !acc

(* [residual] over the inlined replicas: bitwise the same value. *)
let[@inline] residual_at t ~qt ~vds v =
  (t.c_sigma *. v) +. qt -. qs_eval t v -. qs_eval t (v +. vds)

type io = {
  mutable vds : float;
  mutable qt : float;
  mutable vsc : float;
  mutable dqs : float;
  mutable dqd : float;
}

(* The drain bias the plan's derived parts currently hold, in a float
   record of its own so that storing it does not box. *)
type target = { mutable at : float }

(* A plan owns capacity for the worst-case merged-breakpoint count
   (2 * source breakpoints); [n_bps] is the live prefix for the current
   drain bias.  Retargeting refills the same storage for a new vds, so
   a caller that keeps a plan per device pays the allocation once.
   The interval records are columns indexed by interval: [iv_set]
   drops on retarget and the first solve landing in an interval refills
   its row; [iv_npd.(k)] holds the negated vds-shifted drain piece in
   its first [iv_nd.(k)] cells. *)
type plan = {
  owner : t;
  io : io;
  target : target;
  mutable primed : bool; (* false only before the first retarget *)
  bps : float array; (* capacity 2 * |sbs|; live prefix [0, n_bps) *)
  bp_src : int array;
      (* source-breakpoint index when [bps.(i)] is exactly [sbs.(j)]
         (so Q_S there is the owner's precomputed [sbs_qs.(j)]), -1 for
         shifted drain breakpoints *)
  mutable n_bps : int;
  e1 : float array; (* Q_S(b_i), filled on demand *)
  e2 : float array; (* Q_S(b_i + vds), filled on demand *)
  mutable e_filled : int; (* e1/e2 valid for indices < e_filled *)
  iv_set : bool array; (* capacity 2 * |sbs| + 1 *)
  iv_lo : float array;
  iv_hi : float array;
  iv_nps : Polynomial.t array; (* negated source piece on the interval *)
  iv_npd : float array array; (* negated drain piece, pre-shifted by vds *)
  iv_nd : int array; (* live coefficient count of [iv_npd.(k)] *)
  s1 : float array; (* scratch: (qt + c V) - ps accumulation *)
  s2 : float array; (* scratch: full residual accumulation *)
  bufs : Polynomial.t array; (* trimmed residual polynomials by length *)
  rbuf : float array; (* root-extraction scratch, length 3 *)
}

let io p = p.io

let retarget_force p =
  let t = p.owner in
  let vds = p.io.vds in
  let sbs = t.sbs in
  let nb = Array.length sbs in
  let nb2 = 2 * nb in
  let out = p.bps in
  let src = p.bp_src in
  let i = ref 0 and j = ref 0 and kept = ref 0 and origin = ref (-1) in
  for _ = 1 to nb2 do
    let v =
      if !i >= nb then begin
        let v = sbs.(!j) -. vds in
        incr j;
        origin := -1;
        v
      end
      else if !j >= nb then begin
        let v = sbs.(!i) in
        origin := !i;
        incr i;
        v
      end
      else begin
        let a = sbs.(!i) and b = sbs.(!j) -. vds in
        if a <= b then begin
          origin := !i;
          incr i;
          a
        end
        else begin
          incr j;
          origin := -1;
          b
        end
      end
    in
    (* same keep rule as [merged_breakpoints]: drop only when provably
       within 1e-15 of the last kept value *)
    if !kept = 0 || not (Float.abs (v -. out.(!kept - 1)) <= 1e-15) then begin
      out.(!kept) <- v;
      src.(!kept) <- !origin;
      incr kept
    end
  done;
  p.primed <- true;
  p.target.at <- vds;
  p.n_bps <- !kept;
  p.e_filled <- 0;
  Array.fill p.iv_set 0 (!kept + 1) false

(* Retargeting at the bias the plan already holds is a no-op: every
   derived part (breakpoints, memoised charge values, interval records)
   is a deterministic function of (owner, vds), so keeping the warm
   memos is bitwise-identical to rebuilding them — and it is what makes
   plan reuse pay on quasi-static waveforms, where most devices sit at
   an unchanged drain bias for many Newton iterations in a row.  The
   bit comparison (rather than [=]) keeps -0.0 vs 0.0 on the
   conservative rebuild path. *)
let retarget p =
  if
    not
      (p.primed
      && Int64.equal
           (Int64.bits_of_float p.target.at)
           (Int64.bits_of_float p.io.vds))
  then retarget_force p

let replan p ~vds =
  p.io.vds <- vds;
  retarget p

let plan t ~vds =
  let nb2 = 2 * Array.length t.sbs in
  let cap = t.scratch_len in
  let p =
    {
      owner = t;
      io = { vds; qt = 0.0; vsc = 0.0; dqs = 0.0; dqd = 0.0 };
      target = { at = 0.0 };
      primed = false;
      bps = Array.make (Int.max 1 nb2) 0.0;
      bp_src = Array.make (Int.max 1 nb2) (-1);
      n_bps = 0;
      e1 = Array.make (Int.max 1 nb2) 0.0;
      e2 = Array.make (Int.max 1 nb2) 0.0;
      e_filled = 0;
      iv_set = Array.make (nb2 + 1) false;
      iv_lo = Array.make (nb2 + 1) 0.0;
      iv_hi = Array.make (nb2 + 1) 0.0;
      iv_nps = Array.make (nb2 + 1) Polynomial.zero;
      iv_npd = Array.init (nb2 + 1) (fun _ -> Array.make cap 0.0);
      iv_nd = Array.make (nb2 + 1) 0;
      s1 = Array.make cap 0.0;
      s2 = Array.make cap 0.0;
      bufs = Array.init (cap + 1) (fun l -> Array.make l 0.0);
      rbuf = Array.make 3 0.0;
    }
  in
  retarget p;
  p

(* [Polynomial.shift_into] on the drain piece, with the shift read from
   the plan's target rather than passed (and boxed) as an argument:
   writes the coefficients of [shift piece vds] to [acc] through the
   plan's [s2] scratch and returns how many. *)
let shift_drain_into p piece acc =
  let a = p.target.at and scr = p.s2 in
  let np = Array.length piece in
  let la = ref 0 in
  for i = np - 1 downto 0 do
    (* scr <- mul acc [| a; 1.0 |]; empty acc gives the zero poly *)
    let lm = if !la = 0 then 0 else !la + 1 in
    if lm > 0 then begin
      Array.fill scr 0 lm 0.0;
      for ii = 0 to !la - 1 do
        let c = Array.unsafe_get acc ii in
        Array.unsafe_set scr ii (Array.unsafe_get scr ii +. (c *. a));
        Array.unsafe_set scr (ii + 1) (Array.unsafe_get scr (ii + 1) +. (c *. 1.0))
      done
    end;
    (* acc <- normalise (add scr (constant piece.(i))) *)
    let ci = piece.(i) in
    let lc = if ci = 0.0 then 0 else 1 in
    let n = if lm > lc then lm else lc in
    for k = 0 to n - 1 do
      let mv = if k < lm then Array.unsafe_get scr k else 0.0 in
      let cv = if k < lc then ci else 0.0 in
      Array.unsafe_set acc k (mv +. cv)
    done;
    let nn = ref n in
    while !nn > 0 && acc.(!nn - 1) = 0.0 do
      decr nn
    done;
    la := !nn
  done;
  !la

(* Fill interval record [k] on first use, by the scalar path's program
   ([interval_bounds], [representative_of], [piece_at], [shift]);
   pre-negating both pieces performs the [neg] half of the scalar
   path's [sub] once per interval.  The negated source piece comes
   straight from the owner's precomputed table. *)
let fill_interval p k =
  if not p.iv_set.(k) then begin
    let t = p.owner in
    let n = p.n_bps in
    let lo = if n = 0 then 0.0 else if k = 0 then neg_infinity else p.bps.(k - 1) in
    let hi = if n = 0 || k = n then infinity else p.bps.(k) in
    let x = representative_of ~lo ~hi in
    let npd = p.iv_npd.(k) in
    let nd =
      shift_drain_into p t.qpieces.(qs_piece_index t (x +. p.target.at)) npd
    in
    for i = 0 to nd - 1 do
      Array.unsafe_set npd i (-.Array.unsafe_get npd i)
    done;
    p.iv_lo.(k) <- lo;
    p.iv_hi.(k) <- hi;
    p.iv_nps.(k) <- t.neg_pieces.(qs_piece_index t x);
    p.iv_nd.(k) <- nd;
    p.iv_set.(k) <- true
  end

(* Solve at [p.io.qt] for the plan's target bias; writes [p.io.vsc]. *)
let solve_cells p =
  let t = p.owner in
  let qt = p.io.qt and vds = p.target.at in
  let n = p.n_bps in
  let c = t.c_sigma in
  (* bracketing scan, memoising the breakpoint charge values on first
     touch; the residual replays the scalar operation order *)
  let k = ref 0 in
  let stop = ref false in
  while (not !stop) && !k < n do
    let i = !k in
    if i >= p.e_filled then begin
      (* a source-origin breakpoint is exactly [sbs.(j)], so Q_S there
         is the value [create] computed by the same [Piecewise.eval];
         drain-origin values (and every [b + vds]) depend on vds and
         are evaluated through the inlined replica *)
      let s = p.bp_src.(i) in
      p.e1.(i) <-
        (if s >= 0 then Array.unsafe_get t.sbs_qs s else qs_eval t p.bps.(i));
      p.e2.(i) <- qs_eval t (p.bps.(i) +. vds);
      p.e_filled <- i + 1
    end;
    if (c *. p.bps.(i)) +. qt -. p.e1.(i) -. p.e2.(i) >= 0.0 then stop := true
    else incr k
  done;
  let k = !k in
  fill_interval p k;
  (* Residual polynomial [(qt + c V) - ps - pd] fused into the plan's
     scratch: each step adds coefficient-wise against a pre-negated
     piece over the max length and trims trailing [= 0.0]
     coefficients — the same floating-point sums and the same trim
     rule as [residual_poly]'s [add (add linear (neg ps)) (neg pd)],
     without the intermediate allocations. *)
  let nps = p.iv_nps.(k) and npd = p.iv_npd.(k) in
  let lnps = Array.length nps in
  let s1 = p.s1 in
  let l1 = if lnps > 2 then lnps else 2 in
  for i = 0 to l1 - 1 do
    let a = if i = 0 then qt else if i = 1 then c else 0.0 in
    let b = if i < lnps then Array.unsafe_get nps i else 0.0 in
    Array.unsafe_set s1 i (a +. b)
  done;
  let n1 = ref l1 in
  while !n1 > 0 && s1.(!n1 - 1) = 0.0 do
    decr n1
  done;
  let n1 = !n1 in
  let lnpd = p.iv_nd.(k) in
  let s2 = p.s2 in
  let l2 = if n1 > lnpd then n1 else lnpd in
  for i = 0 to l2 - 1 do
    let a = if i < n1 then Array.unsafe_get s1 i else 0.0 in
    let b = if i < lnpd then Array.unsafe_get npd i else 0.0 in
    Array.unsafe_set s2 i (a +. b)
  done;
  let n2 = ref l2 in
  while !n2 > 0 && s2.(!n2 - 1) = 0.0 do
    decr n2
  done;
  let n2 = !n2 in
  let poly = p.bufs.(n2) in
  Array.blit s2 0 poly 0 n2;
  (* [solve_on_interval]'s program, keeping only the voltage *)
  count_root (n2 - 1);
  let lo = p.iv_lo.(k) and hi = p.iv_hi.(k) in
  let eps = 1e-9 in
  let rbuf = p.rbuf in
  let nr = real_roots_into poly rbuf in
  let nc = ref 0 in
  for i = 0 to nr - 1 do
    let r = Array.unsafe_get rbuf i in
    if r >= lo -. eps && r <= hi +. eps then begin
      Array.unsafe_set rbuf !nc r;
      incr nc
    end
  done;
  p.io.vsc <-
    (match !nc with
    | 1 -> Float.min (Float.max rbuf.(0) lo) hi
    | 0 -> bisect_fallback t ~qt ~vds ~lo ~hi
    | nc ->
        let best = ref rbuf.(0) in
        for i = 0 to nc - 1 do
          let r = rbuf.(i) in
          if
            Float.abs (residual_at t ~qt ~vds r)
            < Float.abs (residual_at t ~qt ~vds !best)
          then best := r
        done;
        Float.min (Float.max !best lo) hi)

let solve_plan p ~qt =
  p.io.qt <- qt;
  solve_cells p;
  p.io.vsc

let solve_io p =
  retarget p;
  solve_cells p

let slopes_io p =
  let t = p.owner and io = p.io in
  io.dqs <- qs_slope t io.vsc;
  io.dqd <- qs_slope t (io.vsc +. io.vds)
