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
   evaluations degenerated during a solve attempt.  Atomic because
   device models are evaluated from pool worker domains; under a
   parallel sweep a delta taken around one solve attempt may therefore
   include rescues from concurrent attempts — treat it as an engine-wide
   health signal, not a per-attempt exact count. *)
let fallback_total = Atomic.make 0

let fallback_events () = Atomic.get fallback_total

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
  sub (sub linear ps) pd

(* Endpoints of interval [k] of the merged-breakpoint partition:
   interval 0 is (-inf, b_0], interval k is (b_{k-1}, b_k], interval n
   is (b_{n-1}, +inf) — with the degenerate no-breakpoint partition
   treated as (0, +inf), matching the historical scan result. *)
let interval_bounds_n bps n k =
  if n = 0 then (0.0, infinity)
  else if k = 0 then (neg_infinity, bps.(0))
  else if k = n then (bps.(n - 1), infinity)
  else (bps.(k - 1), bps.(k))

let interval_bounds bps k = interval_bounds_n bps (Array.length bps) k

(* the representative point selects the pieces; it must be strictly
   interior to the interval, because a point sitting exactly on a
   shifted breakpoint can be misclassified by floating-point error
   when re-shifted by vds *)
let representative_of ~lo ~hi =
  if Float.is_finite lo && Float.is_finite hi then 0.5 *. (lo +. hi)
  else if Float.is_finite hi then hi -. 1.0
  else lo +. 1.0

(* Closed-form solve of the residual polynomial on one bracketing
   interval — the tail shared by the scalar path and the batched plan
   path, so the two are the same floating-point program by
   construction. *)
let solve_on_interval t ~qt ~vds ~lo ~hi poly =
  (* both call sites hand over a trimmed polynomial (residual_poly
     normalises; the plan path trims as it builds), so the degree read
     and the trimmed root extraction match the historical
     normalise-then-solve bitwise without the defensive copy *)
  let deg = Array.length poly - 1 in
  Obs.incr c_solves;
  Obs.incr
    (match deg with
    | 3 -> c_cubic
    | 2 -> c_quadratic
    | _ -> c_linear);
  let eps = 1e-9 in
  (* roots and the in-interval filter run over a fixed 3-cell buffer
     ([real_roots_trimmed_into] writes bitwise what the list form
     returns; [List.filter] order is preserved by the in-place
     compaction), keeping root extraction off the allocator *)
  let rbuf = Array.make 3 0.0 in
  let nr = Polynomial.real_roots_trimmed_into poly rbuf in
  let nc = ref 0 in
  for i = 0 to nr - 1 do
    let r = Array.unsafe_get rbuf i in
    if r >= lo -. eps && r <= hi +. eps then begin
      Array.unsafe_set rbuf !nc r;
      incr nc
    end
  done;
  let clamp v = Float.min (Float.max v lo) hi in
  match !nc with
  | 1 ->
      {
        vsc = clamp rbuf.(0);
        interval = (lo, hi);
        degree = deg;
        used_fallback = false;
      }
  | 0 ->
      (* defensive fallback: bisection on a finite cover of the interval;
         not reached for well-formed monotone charge fits *)
      Obs.incr c_fallback;
      Atomic.incr fallback_total;
      let flo = if Float.is_finite lo then lo else hi -. 10.0 in
      let fhi = if Float.is_finite hi then hi else lo +. 10.0 in
      let r = Rootfind.bisect ~tol:1e-13 (residual t ~qt ~vds) flo fhi in
      {
        vsc = r.Rootfind.root;
        interval = (lo, hi);
        degree = deg;
        used_fallback = true;
      }
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
      {
        vsc = clamp !best;
        interval = (lo, hi);
        degree = deg;
        used_fallback = false;
      }

(* [solve_on_interval] for the plan path: the same counters, the same
   root extraction, filter, clamp and fallback program (bitwise — the
   assembly equivalence suite pins plan solves against scalar ones),
   but the roots land in the caller's scratch and only the voltage
   comes back, keeping the per-point solve off the allocator. *)
let solve_on_interval_vsc t ~qt ~vds ~lo ~hi ~rbuf poly =
  let deg = Array.length poly - 1 in
  Obs.incr c_solves;
  Obs.incr
    (match deg with
    | 3 -> c_cubic
    | 2 -> c_quadratic
    | _ -> c_linear);
  let eps = 1e-9 in
  let nr = Polynomial.real_roots_trimmed_into poly rbuf in
  let nc = ref 0 in
  for i = 0 to nr - 1 do
    let r = Array.unsafe_get rbuf i in
    if r >= lo -. eps && r <= hi +. eps then begin
      Array.unsafe_set rbuf !nc r;
      incr nc
    end
  done;
  match !nc with
  | 1 -> Float.min (Float.max rbuf.(0) lo) hi
  | 0 ->
      Obs.incr c_fallback;
      Atomic.incr fallback_total;
      let flo = if Float.is_finite lo then lo else hi -. 10.0 in
      let fhi = if Float.is_finite hi then hi else lo +. 10.0 in
      (Rootfind.bisect ~tol:1e-13 (residual t ~qt ~vds) flo fhi).Rootfind.root
  | nc ->
      let best = ref rbuf.(0) in
      for i = 0 to nc - 1 do
        let r = rbuf.(i) in
        if
          Float.abs (residual t ~qt ~vds r)
          < Float.abs (residual t ~qt ~vds !best)
        then best := r
      done;
      Float.min (Float.max !best lo) hi

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

   Plans are built lazily and cheaply: construction only merges the
   breakpoints (a two-pointer merge over the cached sorted source
   breakpoints and their [-vds]-shifted copies — the same ascending
   multiset, the same dedup-against-last-kept rule as the historical
   append+sort) and allocates the scratch; the breakpoint charge
   values fill on first touch of each scan position and the interval
   records (pieces pre-negated, drain piece pre-shifted) materialise
   on first solve landing in them.  The MNA batched assembly path
   retargets one plan per device per Newton iteration, so plan
   construction sits on the hot path alongside [solve_plan].

   Each precomputed part is produced by the same function calls on the
   same inputs as the scalar path, and the per-point residual
   [(c_sigma * b + qt) - e1 - e2] replays the scalar operation order
   with e1, e2 memoised, so [solve_plan] is bitwise-equal to [solve]
   at every (qt, vds) — the property test suite pins this. *)

(* [Piecewise.piece_index] and [Piecewise.eval] replicated over the
   solver's cached copies of the boundary and piece arrays: the same
   left-inclusive boundary rule and the same Horner program, minus the
   call overhead — the plan scan's lazy fills run these tens of times
   per stencil evaluation. *)
let qs_piece_index t x =
  let bs = t.sbs in
  let nb = Array.length bs in
  let i = ref 0 in
  while !i < nb && not (x <= Array.unsafe_get bs !i) do
    incr i
  done;
  !i

let qs_eval t x =
  let p = Array.unsafe_get t.qpieces (qs_piece_index t x) in
  let acc = ref 0.0 in
  for j = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. Array.unsafe_get p j
  done;
  !acc

(* dQ_S/dV by the derivative Horner over the same piece: the sum of
   j p_j x^(j-1). *)
let qs_slope t x =
  let p = Array.unsafe_get t.qpieces (qs_piece_index t x) in
  let acc = ref 0.0 in
  for j = Array.length p - 1 downto 1 do
    acc := (!acc *. x) +. (float_of_int j *. Array.unsafe_get p j)
  done;
  !acc

(* A reusable interval record: [replan] just drops the [iv_set] flag
   and [interval_of] refills the same storage, so retargeting a plan
   allocates nothing.  [iv_npd] holds the negated vds-shifted drain
   piece in its first [iv_nd] cells. *)
type interval = {
  mutable iv_set : bool;
  mutable iv_lo : float;
  mutable iv_hi : float;
  mutable iv_nps : Polynomial.t; (* negated source piece on this interval *)
  iv_npd : float array; (* negated drain piece, pre-shifted by vds *)
  mutable iv_nd : int; (* live coefficient count of [iv_npd] *)
}

(* A plan owns capacity for the worst-case merged-breakpoint count
   (2 * source breakpoints); [n_bps] is the live prefix for the current
   drain bias.  [replan] refills the same storage for a new vds, so a
   caller that keeps a plan per device pays the allocation once and the
   per-iteration cost is just the two-pointer merge. *)
type plan = {
  owner : t;
  mutable primed : bool; (* false only before the first [replan] *)
  mutable plan_vds : float;
  bps : float array; (* capacity 2 * |sbs|; live prefix [0, n_bps) *)
  bp_src : int array;
      (* source-breakpoint index when [bps.(i)] is exactly [sbs.(j)]
         (so Q_S there is the owner's precomputed [sbs_qs.(j)]), -1 for
         shifted drain breakpoints *)
  mutable n_bps : int;
  e1 : float array; (* Q_S(b_i), filled on demand *)
  e2 : float array; (* Q_S(b_i + vds), filled on demand *)
  mutable e_filled : int; (* e1/e2 valid for indices < e_filled *)
  ivs : interval array; (* capacity 2 * |sbs| + 1, refilled lazily *)
  s1 : float array; (* scratch: (qt + c V) - ps accumulation *)
  s2 : float array; (* scratch: full residual accumulation *)
  bufs : Polynomial.t array; (* trimmed residual polynomials by length *)
  rbuf : float array; (* root-extraction scratch, length 3 *)
}

let replan_force p ~vds =
  let t = p.owner in
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
  p.plan_vds <- vds;
  p.n_bps <- !kept;
  p.e_filled <- 0;
  for k = 0 to !kept do
    p.ivs.(k).iv_set <- false
  done

(* Retargeting at the bias the plan already holds is a no-op: every
   derived part (breakpoints, memoised charge values, interval records)
   is a deterministic function of (owner, vds), so keeping the warm
   memos is bitwise-identical to rebuilding them — and it is what makes
   plan reuse pay on quasi-static waveforms, where most devices sit at
   an unchanged drain bias for many Newton iterations in a row.  The
   bit comparison (rather than [=]) keeps -0.0 vs 0.0 and NaN on the
   conservative rebuild path. *)
let replan p ~vds =
  if
    p.primed
    && Int64.equal (Int64.bits_of_float p.plan_vds) (Int64.bits_of_float vds)
  then ()
  else replan_force p ~vds

let plan t ~vds =
  let nb2 = 2 * Array.length t.sbs in
  let cap = t.scratch_len in
  let p =
    {
      owner = t;
      primed = false;
      plan_vds = 0.0;
      bps = Array.make (Int.max 1 nb2) 0.0;
      bp_src = Array.make (Int.max 1 nb2) (-1);
      n_bps = 0;
      e1 = Array.make (Int.max 1 nb2) 0.0;
      e2 = Array.make (Int.max 1 nb2) 0.0;
      e_filled = 0;
      ivs =
        Array.init (nb2 + 1) (fun _ ->
            {
              iv_set = false;
              iv_lo = 0.0;
              iv_hi = 0.0;
              iv_nps = Polynomial.zero;
              iv_npd = Array.make cap 0.0;
              iv_nd = 0;
            });
      s1 = Array.make cap 0.0;
      s2 = Array.make cap 0.0;
      bufs = Array.init (cap + 1) (fun l -> Array.make l 0.0);
      rbuf = Array.make 3 0.0;
    }
  in
  replan p ~vds;
  p

let plan_vds p = p.plan_vds

(* The interval record for slot [k], built on first use by the same
   calls as the scalar path ([interval_bounds], [representative_of],
   [piece_at], [shift]); pre-negating both pieces performs the [neg]
   half of the scalar path's [sub] once per interval.  The negated
   source piece comes straight from the owner's precomputed table, and
   the shifted drain piece is built by {!Polynomial.shift_into} through
   the plan's scratch (both bitwise-equal to the allocating calls they
   replace), so the only allocations left per interval are the record
   and the final exact-length coefficient copy. *)
let interval_of p k =
  let iv = p.ivs.(k) in
  if not iv.iv_set then begin
    let t = p.owner in
    let lo, hi = interval_bounds_n p.bps p.n_bps k in
    let x = representative_of ~lo ~hi in
    let nd =
      Polynomial.shift_into
        t.qpieces.(qs_piece_index t (x +. p.plan_vds))
        p.plan_vds iv.iv_npd p.s2
    in
    let npd = iv.iv_npd in
    for i = 0 to nd - 1 do
      Array.unsafe_set npd i (-.Array.unsafe_get npd i)
    done;
    iv.iv_lo <- lo;
    iv.iv_hi <- hi;
    iv.iv_nps <- t.neg_pieces.(qs_piece_index t x);
    iv.iv_nd <- nd;
    iv.iv_set <- true
  end;
  iv

let solve_plan p ~qt =
  let t = p.owner in
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
      p.e2.(i) <- qs_eval t (p.bps.(i) +. p.plan_vds);
      p.e_filled <- i + 1
    end;
    if (c *. p.bps.(i)) +. qt -. p.e1.(i) -. p.e2.(i) >= 0.0 then stop := true
    else incr k
  done;
  let iv = interval_of p !k in
  (* Residual polynomial [(qt + c V) - ps - pd] fused into the plan's
     scratch: each step adds coefficient-wise against a pre-negated
     piece over the max length and trims trailing [= 0.0]
     coefficients — the same floating-point sums and the same trim
     rule as [Polynomial.(sub (sub (of_coeffs [|qt; c|]) ps) pd)],
     without the intermediate allocations. *)
  let nps = iv.iv_nps and npd = iv.iv_npd in
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
  let lnpd = iv.iv_nd in
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
  solve_on_interval_vsc t ~qt ~vds:p.plan_vds ~lo:iv.iv_lo ~hi:iv.iv_hi
    ~rbuf:p.rbuf poly
