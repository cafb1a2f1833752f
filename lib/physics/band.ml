(* Carbon-nanotube band structure in the zone-folded tight-binding
   approximation.

   A (n, m) nanotube is metallic when (n - m) mod 3 = 0, otherwise
   semiconducting with band gap  Eg = 2 a_cc gamma / d  where a_cc is
   the carbon-carbon bond length, gamma the tight-binding hopping
   energy and d the tube diameter.  Higher semiconducting subbands sit
   at multiples of Eg/2 following the allowed-line sequence 1, 2, 4,
   5, 7, 8, ... (lines not divisible by 3). *)

exception Not_semiconducting of string

let a_cc = 0.142e-9
(* carbon-carbon bond length, m *)

let lattice_constant = a_cc *. sqrt 3.0
(* graphene lattice constant, m *)

let hopping_energy_ev = 3.0
(* tight-binding pi-orbital hopping gamma, eV *)

type chirality = {
  n : int;
  m : int;
}

let chirality n m =
  if n <= 0 || m < 0 || m > n then
    invalid_arg "Band.chirality: require n > 0 and 0 <= m <= n";
  { n; m }

let is_metallic { n; m } = (n - m) mod 3 = 0

let diameter { n; m } =
  let n = float_of_int n and m = float_of_int m in
  lattice_constant *. sqrt ((n *. n) +. (n *. m) +. (m *. m)) /. Float.pi

(* Band gap in eV from the tube diameter in metres. *)
let band_gap_of_diameter d =
  if not (d > 0.0) then
    invalid_arg "Band.band_gap_of_diameter: diameter must be positive";
  2.0 *. a_cc *. hopping_energy_ev /. d

let band_gap c =
  if is_metallic c then
    raise
      (Not_semiconducting
         (Printf.sprintf "(%d,%d) nanotube is metallic" c.n c.m))
  else band_gap_of_diameter (diameter c)

(* Allowed-line multipliers for semiconducting subbands: the distance of
   the p-th allowed line from the K point in units of the first one.
   Sequence: 1, 2, 4, 5, 7, 8, ... (integers not divisible by 3). *)
let subband_multiplier p =
  if p < 1 then invalid_arg "Band.subband_multiplier: p must be >= 1";
  let k = (p - 1) / 2 and r = (p - 1) mod 2 in
  (3 * k) + 1 + r

(* Half-gaps Delta_p (eV) of the first [count] semiconducting subbands
   for a tube of diameter [d] metres: Delta_p = (Eg/2) * multiplier. *)
let subband_half_gaps ~diameter:d ~count =
  if count < 1 then invalid_arg "Band.subband_half_gaps: count must be >= 1";
  let half_gap = 0.5 *. band_gap_of_diameter d in
  Array.init count (fun i -> half_gap *. float_of_int (subband_multiplier (i + 1)))

(* Fermi velocity at the K point, m/s: v_F = 3 a_cc gamma / (2 hbar). *)
let fermi_velocity =
  3.0 *. a_cc *. Cnt_numerics.Constants.ev_to_joule hopping_energy_ev
  /. (2.0 *. Cnt_numerics.Constants.hbar)
