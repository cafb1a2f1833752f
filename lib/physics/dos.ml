(* Density of states of a semiconducting carbon nanotube.

   Each subband p with half-gap Delta_p contributes, per unit length
   and including the four-fold spin/valley degeneracy,

     D_p(E) = D0 * E' / sqrt(E'^2 - Delta_p^2),   E' = E + Delta_1,

   for energies E measured from the *first* subband edge (so the first
   subband turns on at E = 0 and subband p at E = Delta_p - Delta_1).
   D0 = 8 / (3 pi a_cc gamma) is the asymptotic metallic value; the
   van Hove factor diverges (integrably) at each subband edge. *)

open Cnt_numerics

(* D0 in states per eV per metre. *)
let d0 = 8.0 /. (3.0 *. Float.pi *. Band.a_cc *. Band.hopping_energy_ev)

type t = {
  half_gaps : float array; (* Delta_p in eV, ascending *)
}

let create half_gaps =
  if Array.length half_gaps = 0 then invalid_arg "Dos.create: no subbands";
  if not (Grid.is_sorted half_gaps) then
    invalid_arg "Dos.create: half gaps must be ascending";
  Array.iter
    (fun d ->
      if not (d > 0.0) then invalid_arg "Dos.create: half gaps must be positive")
    half_gaps;
  { half_gaps = Array.copy half_gaps }

let of_diameter ?(subbands = 1) d =
  create (Band.subband_half_gaps ~diameter:d ~count:subbands)

let half_gaps t = Array.copy t.half_gaps

(* Edge of subband p (0-based) in eV relative to the first edge. *)
let edge t p = t.half_gaps.(p) -. t.half_gaps.(0)

(* Density of states at energy [e] (eV, measured from the first subband
   edge), states per eV per metre.  Infinite exactly at a subband edge;
   integrations avoid the singular points via the cosh substitution. *)
let density t e =
  let acc = ref 0.0 in
  Array.iter
    (fun delta ->
      (* energy measured from the mid-gap of this subband *)
      let e' = e +. t.half_gaps.(0) in
      if e' > delta then
        acc := !acc +. (d0 *. e' /. sqrt ((e' *. e') -. (delta *. delta))))
    t.half_gaps;
  !acc
