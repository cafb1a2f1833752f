(* Process-variation study: Monte-Carlo sampling of device geometry
   (diameter and oxide thickness), refitting the piecewise model per
   sample, and summarising the on-current spread.

   This is the circuit-design use case the paper motivates — "large
   numbers of such devices" — where per-device model construction cost
   matters as much as evaluation cost: a fit takes milliseconds, so a
   thousand-device variation run is practical where the reference model
   would need hours.

   Sampling is deterministic (SplitMix64) and {e per-sample}: sample i
   draws from its own [Prng.stream] derived purely from the seed and i,
   so the sampled geometries — and hence the whole spread — do not
   depend on the order the samples are evaluated in. *)

open Cnt_numerics
open Cnt_physics
open Cnt_core

type spread = {
  nominal : float; (* A *)
  mean : float;
  sigma : float;
  minimum : float;
  maximum : float;
  samples : float array;
}

type config = {
  diameter_sigma : float; (* relative, e.g. 0.05 = 5 % *)
  tox_sigma : float; (* relative *)
  count : int;
  seed : int64;
  vgs : float;
  vds : float;
}

let default_config =
  {
    diameter_sigma = 0.05;
    tox_sigma = 0.05;
    count = 200;
    seed = 42L;
    vgs = 0.6;
    vds = 0.6;
  }

(* One sampled device around the nominal geometry; distributions are
   truncated at +-3 sigma to exclude unphysical geometries. *)
let sample_device rng config nominal =
  let truncated sigma =
    let rec go () =
      let x = Prng.gaussian ~sigma rng in
      if Float.abs x <= 3.0 *. sigma then x else go ()
    in
    if sigma = 0.0 then 0.0 else go ()
  in
  let d_scale = 1.0 +. truncated config.diameter_sigma in
  let t_scale = 1.0 +. truncated config.tox_sigma in
  Device.create
    ~name:nominal.Device.name
    ~diameter:(nominal.Device.diameter *. d_scale)
    ~oxide_thickness:(nominal.Device.oxide_thickness *. t_scale)
    ~dielectric:nominal.Device.dielectric ~temp:nominal.Device.temp
    ~fermi:nominal.Device.fermi ~alpha_g:nominal.Device.alpha_g
    ~alpha_d:nominal.Device.alpha_d ~subbands:nominal.Device.subbands ()

let run ?(config = default_config) ?(nominal = Device.default) () =
  let module Progress = Cnt_obs.Progress in
  if config.count < 2 then invalid_arg "Variation.run: need at least 2 samples";
  if Progress.on () then
    Progress.emit
      (Progress.Analysis_start
         { analysis = "mc"; label = Printf.sprintf "variation %d" config.count });
  let base = Prng.create ~seed:config.seed () in
  let on_current device =
    let model = Cnt_model.make ~spec:Charge_fit.model2_spec device in
    Cnt_model.ids model ~vgs:config.vgs ~vds:config.vds
  in
  let nominal_current = on_current nominal in
  let samples =
    Array.init config.count (fun i ->
        (* stream i depends only on (seed, i) *)
        let rng = Prng.stream base i in
        let ids = on_current (sample_device rng config nominal) in
        if Progress.on () then
          Progress.emit
            (Progress.Sample { label = "variation"; i = i + 1; n = config.count });
        ids)
  in
  if Progress.on () then
    Progress.emit
      (Progress.Analysis_finish
         {
           analysis = "mc";
           label = Printf.sprintf "variation %d" config.count;
           points = config.count;
         });
  {
    nominal = nominal_current;
    mean = Stats.mean samples;
    sigma = Stats.stddev samples;
    minimum = Stats.minimum samples;
    maximum = Stats.maximum samples;
    samples;
  }

let to_string s =
  Printf.sprintf
    "On-current spread over %d Monte-Carlo samples\n\
    \  nominal  %.4g A\n\
    \  mean     %.4g A\n\
    \  sigma    %.4g A (%.1f%% of mean)\n\
    \  min/max  %.4g / %.4g A\n"
    (Array.length s.samples) s.nominal s.mean s.sigma
    (100.0 *. s.sigma /. s.mean)
    s.minimum s.maximum

let to_csv s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "sample,ids_a\n";
  Array.iteri
    (fun i x -> Buffer.add_string buf (Printf.sprintf "%d,%.9g\n" i x))
    s.samples;
  Buffer.contents buf
