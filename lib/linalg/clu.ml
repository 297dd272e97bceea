(* Complex LU with partial pivoting. Internally the packed factors are
   stored as two flat float arrays (real and imaginary parts): boxed
   [Complex.t] arithmetic in the O(n³) elimination loop costs an
   allocation per flop without flambda. The spectral solver factors
   Q(z_k) here only for complex eigenvalues; real ones take the real,
   band-aware [Lu.left_null_vector]. *)

type t = {
  n : int;
  re : float array; (* packed L (unit diag, below) and U, real parts *)
  im : float array;
  perm : int array;
  sign : int;
  min_pivot : float;
}

exception Singular

let dim f = f.n

(* [patch]: when [Some eps], zero pivots are replaced by [eps] so the
   factorization always completes (inverse-iteration use). *)
let factor_general ?patch a =
  if a.Cmatrix.rows <> a.Cmatrix.cols then invalid_arg "Clu.factor: not square";
  let n = a.Cmatrix.rows in
  let re = Array.make (n * n) 0.0 and im = Array.make (n * n) 0.0 in
  Array.iteri
    (fun k (z : Cx.t) ->
      re.(k) <- z.Complex.re;
      im.(k) <- z.Complex.im)
    a.Cmatrix.data;
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1 in
  let min_pivot = ref infinity in
  let patched = ref false in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       (* pivot search in column k by |re| + |im| *)
       let piv = ref k in
       let best = ref (abs_float re.((k * n) + k) +. abs_float im.((k * n) + k)) in
       for i = k + 1 to n - 1 do
         let v = abs_float re.((i * n) + k) +. abs_float im.((i * n) + k) in
         if v > !best then begin
           best := v;
           piv := i
         end
       done;
       if !best = 0.0 then begin
         match patch with
         | None ->
             singular := true;
             raise Exit
         | Some eps ->
             re.((k * n) + k) <- eps;
             patched := true
       end;
       if !piv <> k then begin
         let rk = k * n and rp = !piv * n in
         for j = 0 to n - 1 do
           let tr = re.(rk + j) and ti = im.(rk + j) in
           re.(rk + j) <- re.(rp + j);
           im.(rk + j) <- im.(rp + j);
           re.(rp + j) <- tr;
           im.(rp + j) <- ti
         done;
         let tp = perm.(k) in
         perm.(k) <- perm.(!piv);
         perm.(!piv) <- tp;
         sign := - !sign
       end;
       let rk = k * n in
       let pr = re.(rk + k) and pi = im.(rk + k) in
       let pm = sqrt ((pr *. pr) +. (pi *. pi)) in
       if pm < !min_pivot then min_pivot := pm;
       let denom = (pr *. pr) +. (pi *. pi) in
       for i = k + 1 to n - 1 do
         let ri = i * n in
         let ar = re.(ri + k) and ai = im.(ri + k) in
         if ar <> 0.0 || ai <> 0.0 then begin
           (* factor = a / pivot *)
           let fr = ((ar *. pr) +. (ai *. pi)) /. denom in
           let fi = ((ai *. pr) -. (ar *. pi)) /. denom in
           re.(ri + k) <- fr;
           im.(ri + k) <- fi;
           for j = k + 1 to n - 1 do
             let kr = re.(rk + j) and ki = im.(rk + j) in
             re.(ri + j) <- re.(ri + j) -. ((fr *. kr) -. (fi *. ki));
             im.(ri + j) <- im.(ri + j) -. ((fr *. ki) +. (fi *. kr))
           done
         end
       done
     done
   with Exit -> ());
  if !singular then Error `Singular
  else Ok ({ n; re; im; perm; sign = !sign; min_pivot = !min_pivot }, !patched)

let factor a =
  match factor_general a with Ok (f, _) -> Ok f | Error e -> Error e

let factor_exn a =
  match factor_general a with Ok (f, _) -> f | Error `Singular -> raise Singular

let factor_regularized a =
  let eps = 1e-300 +. (epsilon_float *. Cmatrix.max_abs a) in
  match factor_general ~patch:eps a with
  | Ok (f, patched) -> (f, patched)
  | Error `Singular -> assert false

let div_by ~dr ~di xr xi =
  (* (xr + i·xi) / (dr + i·di) *)
  let denom = (dr *. dr) +. (di *. di) in
  if denom = 0.0 then raise Singular;
  (((xr *. dr) +. (xi *. di)) /. denom, ((xi *. dr) -. (xr *. di)) /. denom)

let solve f b =
  let n = f.n in
  if Cvec.dim b <> n then invalid_arg "Clu.solve: dimension mismatch";
  let xr = Array.make n 0.0 and xi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let (z : Cx.t) = b.(f.perm.(i)) in
    xr.(i) <- z.Complex.re;
    xi.(i) <- z.Complex.im
  done;
  for i = 1 to n - 1 do
    let ri = i * n in
    let ar = ref xr.(i) and ai = ref xi.(i) in
    for j = 0 to i - 1 do
      let lr = f.re.(ri + j) and li = f.im.(ri + j) in
      ar := !ar -. ((lr *. xr.(j)) -. (li *. xi.(j)));
      ai := !ai -. ((lr *. xi.(j)) +. (li *. xr.(j)))
    done;
    xr.(i) <- !ar;
    xi.(i) <- !ai
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let ar = ref xr.(i) and ai = ref xi.(i) in
    for j = i + 1 to n - 1 do
      let ur = f.re.(ri + j) and ui = f.im.(ri + j) in
      ar := !ar -. ((ur *. xr.(j)) -. (ui *. xi.(j)));
      ai := !ai -. ((ur *. xi.(j)) +. (ui *. xr.(j)))
    done;
    let qr, qi = div_by ~dr:f.re.(ri + i) ~di:f.im.(ri + i) !ar !ai in
    xr.(i) <- qr;
    xi.(i) <- qi
  done;
  Array.init n (fun i -> Cx.make xr.(i) xi.(i))

let solve_transposed f b =
  let n = f.n in
  if Cvec.dim b <> n then invalid_arg "Clu.solve_transposed: dimension mismatch";
  let yr = Array.make n 0.0 and yi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let (z : Cx.t) = b.(i) in
    yr.(i) <- z.Complex.re;
    yi.(i) <- z.Complex.im
  done;
  (* Uᵀ y = b: forward substitution down the columns of U *)
  for i = 0 to n - 1 do
    let ar = ref yr.(i) and ai = ref yi.(i) in
    for j = 0 to i - 1 do
      let ur = f.re.((j * n) + i) and ui = f.im.((j * n) + i) in
      ar := !ar -. ((ur *. yr.(j)) -. (ui *. yi.(j)));
      ai := !ai -. ((ur *. yi.(j)) +. (ui *. yr.(j)))
    done;
    let qr, qi = div_by ~dr:f.re.((i * n) + i) ~di:f.im.((i * n) + i) !ar !ai in
    yr.(i) <- qr;
    yi.(i) <- qi
  done;
  (* Lᵀ z = y: backward substitution *)
  for i = n - 1 downto 0 do
    let ar = ref yr.(i) and ai = ref yi.(i) in
    for j = i + 1 to n - 1 do
      let lr = f.re.((j * n) + i) and li = f.im.((j * n) + i) in
      ar := !ar -. ((lr *. yr.(j)) -. (li *. yi.(j)));
      ai := !ai -. ((lr *. yi.(j)) +. (li *. yr.(j)))
    done;
    yr.(i) <- !ar;
    yi.(i) <- !ai
  done;
  let x = Array.make n Cx.zero in
  for i = 0 to n - 1 do
    x.(f.perm.(i)) <- Cx.make yr.(i) yi.(i)
  done;
  x

let solve_matrix f b =
  let n = dim f in
  if b.Cmatrix.rows <> n then invalid_arg "Clu.solve_matrix: dimension mismatch";
  let cols = b.Cmatrix.cols in
  let x = Cmatrix.create n cols in
  for j = 0 to cols - 1 do
    let xj = solve f (Cmatrix.col b j) in
    for i = 0 to n - 1 do
      Cmatrix.set x i j xj.(i)
    done
  done;
  x

let det_of_factor f =
  let n = dim f in
  let acc = ref (Cx.of_float (float_of_int f.sign)) in
  for i = 0 to n - 1 do
    acc := Cx.mul !acc (Cx.make f.re.((i * n) + i) f.im.((i * n) + i))
  done;
  !acc

let det a =
  match factor_general a with
  | Ok (f, _) -> det_of_factor f
  | Error `Singular -> Cx.zero

let smallest_pivot f = f.min_pivot

let inverse a =
  match factor a with
  | Error `Singular -> Error `Singular
  | Ok f -> (
      let n = dim f in
      try
        let inv = Cmatrix.create n n in
        for j = 0 to n - 1 do
          let e = Cvec.create n in
          e.(j) <- Cx.one;
          let x = solve f e in
          for i = 0 to n - 1 do
            Cmatrix.set inv i j x.(i)
          done
        done;
        Ok inv
      with Singular -> Error `Singular)

let solve_system a b =
  match factor a with
  | Error `Singular -> Error `Singular
  | Ok f -> ( try Ok (solve f b) with Singular -> Error `Singular)

(* Deterministic quasi-random start vector, so results are reproducible. *)
let start_vector n =
  Cvec.init n (fun i ->
      let x = sin (float_of_int ((i * 37) + 11)) in
      let y = cos (float_of_int ((i * 53) + 7)) in
      Cx.make (0.5 +. (0.5 *. x)) (0.3 *. y))

let inverse_iteration solve_fn n =
  let x = ref (start_vector n) in
  let scale_unit v = Cvec.scale (Cx.of_float (1.0 /. Cvec.norm2 v)) v in
  x := scale_unit !x;
  for _ = 1 to 4 do
    let y = solve_fn !x in
    x := scale_unit y
  done;
  Cvec.normalize !x

let null_vector a =
  let f, _ = factor_regularized a in
  inverse_iteration (solve f) a.Cmatrix.rows

let left_null_vector a =
  let f, _ = factor_regularized a in
  (* uᵀ with aᵀ uᵀ = 0, i.e. inverse iteration using the transposed solve *)
  inverse_iteration (solve_transposed f) a.Cmatrix.rows
