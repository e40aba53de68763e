(* "Quickly generating billion-record synthetic databases" (Gray et al.,
   SIGMOD '94) rejection-free method, the same algorithm YCSB uses. *)

type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
}

let zeta_sum n theta =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. (float_of_int i ** theta))
  done;
  !acc

(* The normalizer is O(n) [pow] calls, and every cluster build makes a
   generator over the same key space: a benchmark's repeated runs, a
   sweep's points. So the last one computed is kept. One immutable
   entry, replaced whole, so a reader on another domain sees a matching
   triple. *)
let last_zeta = ref (0, 0.0, 0.0)

let zeta n theta =
  let n', theta', z = !last_zeta in
  if n = n' && Float.equal theta theta' then z
  else begin
    let z = zeta_sum n theta in
    last_zeta := (n, theta, z);
    z
  end

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 || theta >= 1.0 then invalid_arg "Zipf.create: theta in [0,1)";
  let zetan = zeta n theta in
  let zeta2 = zeta_sum 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta }

let next t rng =
  let u = Rcc_common.Rng.float rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** t.theta) then 1
  else
    let v =
      float_of_int t.n
      *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha)
    in
    let k = int_of_float v in
    if k >= t.n then t.n - 1 else if k < 0 then 0 else k

let zetan t = t.zetan
let n t = t.n
let theta t = t.theta
