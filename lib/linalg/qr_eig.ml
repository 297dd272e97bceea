(* Francis implicit double-shift QR ("hqr"), following the classical
   EISPACK/Numerical-Recipes formulation, 0-based. The matrix is
   destroyed during iteration, so we work on a flat row-major copy, as
   Lu and Hessenberg do: without flambda an array of rows costs a
   bounds-checked load of the row per entry. The algorithm repeatedly:
   (1) deflates at negligible subdiagonal entries, (2) extracts
   trailing 1x1 / 2x2 blocks as converged eigenvalues, and (3)
   otherwise performs an implicit double-shift sweep on rows l..nn,
   with an exceptional shift every 10 stalled iterations. *)

exception No_convergence of { dim : int; block : int; iterations : int }

(* mutated from pool workers under `--jobs N`, so it must be atomic to
   keep the cumulative total exact *)
let sweep_count = Atomic.make 0

let total_sweeps () = Atomic.get sweep_count

type event = Sweep | Deflate

type progress = {
  event : event;
  sweeps : int;
  total : int;
  remaining : int;
  block : int;
  residual : float;
  shift : float;
  exceptional : bool;
}

let sign_of a b = if b >= 0.0 then abs_float a else -.abs_float a

let eigenvalues_hessenberg ?(max_iter = 100) ?observe h =
  if not (Matrix.is_square h) then invalid_arg "Qr_eig: not square";
  let n = h.Matrix.rows in
  Row_update.check_storage "Qr_eig" h.Matrix.data ~rows:n ~cols:n;
  if not (Hessenberg.is_hessenberg h) then invalid_arg "Qr_eig: not Hessenberg";
  (* a flat row-major copy, entry (i, j) at i·n + j *)
  let a = Array.copy h.Matrix.data in
  let wr = Array.make n 0.0 and wi = Array.make n 0.0 in
  if n = 0 then [||]
  else begin
    let eps = epsilon_float in
    let anorm = ref 0.0 in
    for i = 0 to n - 1 do
      let ri = i * n in
      for j = max 0 (i - 1) to n - 1 do
        anorm := !anorm +. abs_float a.(ri + j)
      done
    done;
    let anorm = !anorm in
    let t = ref 0.0 in
    let local_sweeps = ref 0 in
    (* the callback only reads values the iteration already computed, so
       results are bit-identical with or without an observer *)
    let notify ev ~sweeps ~remaining ~block ~residual ~shift ~exceptional =
      match observe with
      | None -> ()
      | Some f ->
          f
            {
              event = ev;
              sweeps;
              total = !local_sweeps;
              remaining;
              block;
              residual;
              shift;
              exceptional;
            }
    in
    let nn = ref (n - 1) in
    while !nn >= 0 do
      let its = ref 0 in
      let deflated = ref false in
      while not !deflated do
        let nn_v = !nn in
        let rnn = nn_v * n in
        (* find l: smallest row index of the active trailing block *)
        let l = ref 0 in
        (try
           for ll = nn_v downto 1 do
             let rll = ll * n in
             let s0 =
               abs_float a.(rll - n + ll - 1) +. abs_float a.(rll + ll)
             in
             let s = if s0 = 0.0 then anorm else s0 in
             if abs_float a.(rll + ll - 1) <= eps *. s then begin
               a.(rll + ll - 1) <- 0.0;
               l := ll;
               raise Exit
             end
           done
         with Exit -> ());
        let l = !l in
        let x = a.(rnn + nn_v) in
        if l = nn_v then begin
          (* one real root *)
          wr.(nn_v) <- x +. !t;
          wi.(nn_v) <- 0.0;
          nn := nn_v - 1;
          deflated := true;
          notify Deflate ~sweeps:!its ~remaining:nn_v ~block:1 ~residual:0.0
            ~shift:x ~exceptional:false
        end
        else begin
          let rn1 = rnn - n in
          let y = a.(rn1 + nn_v - 1) in
          let w = a.(rnn + nn_v - 1) *. a.(rn1 + nn_v) in
          if l = nn_v - 1 then begin
            (* a trailing 2x2 block: two roots *)
            let p = 0.5 *. (y -. x) in
            let q = (p *. p) +. w in
            let z = sqrt (abs_float q) in
            let x = x +. !t in
            if q >= 0.0 then begin
              let z = p +. sign_of z p in
              wr.(nn_v - 1) <- x +. z;
              wr.(nn_v) <- (if z <> 0.0 then x -. (w /. z) else x +. z);
              wi.(nn_v - 1) <- 0.0;
              wi.(nn_v) <- 0.0
            end
            else begin
              wr.(nn_v - 1) <- x +. p;
              wr.(nn_v) <- x +. p;
              wi.(nn_v) <- z;
              wi.(nn_v - 1) <- -.z
            end;
            nn := nn_v - 2;
            deflated := true;
            notify Deflate ~sweeps:!its ~remaining:(nn_v - 1) ~block:2
              ~residual:0.0 ~shift:x ~exceptional:false
          end
          else begin
            if !its >= max_iter then
              raise (No_convergence { dim = n; block = nn_v; iterations = !its });
            let x = ref x and y = ref y and w = ref w in
            let exceptional = !its > 0 && !its mod 10 = 0 in
            if exceptional then begin
              (* exceptional shift *)
              t := !t +. !x;
              for i = 0 to nn_v do
                a.((i * n) + i) <- a.((i * n) + i) -. !x
              done;
              let s =
                abs_float a.(rnn + nn_v - 1)
                +. abs_float a.(rn1 + nn_v - 2)
              in
              x := 0.75 *. s;
              y := !x;
              w := -0.4375 *. s *. s
            end;
            incr its;
            Atomic.incr sweep_count;
            incr local_sweeps;
            notify Sweep ~sweeps:!its ~remaining:(nn_v + 1)
              ~block:(nn_v - l + 1)
              ~residual:(abs_float a.(rnn + nn_v - 1))
              ~shift:!x ~exceptional;
            (* find m: start row of the sweep, where two consecutive
               subdiagonals are small *)
            let p = ref 0.0 and q = ref 0.0 and r = ref 0.0 in
            let m = ref (nn_v - 2) in
            (try
               while !m >= l do
                 let mm = !m in
                 let rm = mm * n in
                 let rm1 = rm + n in
                 let z = a.(rm + mm) in
                 let rr = !x -. z in
                 let ss = !y -. z in
                 p := (((rr *. ss) -. !w) /. a.(rm1 + mm)) +. a.(rm + mm + 1);
                 q := a.(rm1 + mm + 1) -. z -. rr -. ss;
                 r := a.(rm1 + n + mm + 1);
                 let s = abs_float !p +. abs_float !q +. abs_float !r in
                 p := !p /. s;
                 q := !q /. s;
                 r := !r /. s;
                 if mm = l then raise Exit;
                 let u =
                   abs_float a.(rm + mm - 1) *. (abs_float !q +. abs_float !r)
                 in
                 let v =
                   abs_float !p
                   *. (abs_float a.(rm - n + mm - 1)
                      +. abs_float z
                      +. abs_float a.(rm1 + mm + 1))
                 in
                 if u <= eps *. v then raise Exit;
                 decr m
               done
             with Exit -> ());
            let m = !m in
            for i = m + 2 to nn_v do
              let ri = i * n in
              a.(ri + i - 2) <- 0.0;
              if i <> m + 2 then a.(ri + i - 3) <- 0.0
            done;
            (* double QR sweep over rows m..nn-1. The last step (k =
               nn − 1) has no third row: its row and column updates add
               0.0 in its place, as the three-row formula with r = 0
               does, which turns a −0 sum into +0. *)
            for k = m to nn_v - 1 do
              let rk = k * n in
              let rk1 = rk + n in
              let three = k <> nn_v - 1 in
              if k <> m then begin
                p := a.(rk + k - 1);
                q := a.(rk1 + k - 1);
                r := if three then a.(rk1 + n + k - 1) else 0.0;
                let xs = abs_float !p +. abs_float !q +. abs_float !r in
                x := xs;
                if xs <> 0.0 then begin
                  p := !p /. xs;
                  q := !q /. xs;
                  r := !r /. xs
                end
              end;
              let s =
                sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p
              in
              if s <> 0.0 then begin
                if k = m then begin
                  if l <> m then a.(rk + k - 1) <- -.a.(rk + k - 1)
                end
                else a.(rk + k - 1) <- -.s *. !x;
                p := !p +. s;
                x := !p /. s;
                y := !q /. s;
                let z = !r /. s in
                q := !q /. !p;
                r := !r /. !p;
                let x = !x and y = !y and q = !q and r = !r in
                let mmin = min nn_v (k + 3) in
                (* unchecked: the row modification spans rows k .. k + 2
                   and columns k .. nn, the column modification rows
                   l .. mmin and columns k .. k + 2, all at most
                   nn ≤ n − 1, of the n×n copy *)
                if three then begin
                  let rk2 = rk1 + n in
                  for j = k to nn_v do
                    (* row modification *)
                    let pj =
                      Array.unsafe_get a (rk + j)
                      +. (q *. Array.unsafe_get a (rk1 + j))
                      +. (r *. Array.unsafe_get a (rk2 + j))
                    in
                    Array.unsafe_set a (rk2 + j)
                      (Array.unsafe_get a (rk2 + j) -. (pj *. z));
                    Array.unsafe_set a (rk1 + j)
                      (Array.unsafe_get a (rk1 + j) -. (pj *. y));
                    Array.unsafe_set a (rk + j)
                      (Array.unsafe_get a (rk + j) -. (pj *. x))
                  done;
                  for i = l to mmin do
                    (* column modification *)
                    let c = (i * n) + k in
                    let pi =
                      (x *. Array.unsafe_get a c)
                      +. (y *. Array.unsafe_get a (c + 1))
                      +. (z *. Array.unsafe_get a (c + 2))
                    in
                    Array.unsafe_set a (c + 2)
                      (Array.unsafe_get a (c + 2) -. (pi *. r));
                    Array.unsafe_set a (c + 1)
                      (Array.unsafe_get a (c + 1) -. (pi *. q));
                    Array.unsafe_set a c (Array.unsafe_get a c -. pi)
                  done
                end
                else begin
                  for j = k to nn_v do
                    let pj =
                      Array.unsafe_get a (rk + j)
                      +. (q *. Array.unsafe_get a (rk1 + j))
                      +. 0.0
                    in
                    Array.unsafe_set a (rk1 + j)
                      (Array.unsafe_get a (rk1 + j) -. (pj *. y));
                    Array.unsafe_set a (rk + j)
                      (Array.unsafe_get a (rk + j) -. (pj *. x))
                  done;
                  for i = l to mmin do
                    let c = (i * n) + k in
                    let pi =
                      (x *. Array.unsafe_get a c)
                      +. (y *. Array.unsafe_get a (c + 1))
                      +. 0.0
                    in
                    Array.unsafe_set a (c + 1)
                      (Array.unsafe_get a (c + 1) -. (pi *. q));
                    Array.unsafe_set a c (Array.unsafe_get a c -. pi)
                  done
                end
              end
            done
          end
        end
      done
    done;
    Array.init n (fun i -> Cx.make wr.(i) wi.(i))
  end

(* Implicit QL with Wilkinson's shift on a symmetric tridiagonal matrix
   (tqli of Numerical Recipes, eigenvalues only), 0-based: e.(i)
   couples rows i and i + 1, and e.(n − 1) = 0 closes the split search.
   Eigenvalue l converges when e.(l) is negligible next to its two
   diagonal neighbours; until then each sweep chases a plane rotation
   from the first negligible e.(m) up to row l. The sweeps share the
   Francis iteration's counter, cap and progress events. *)
let eigenvalues_tridiagonal ?(max_iter = 100) ?observe d0 e0 =
  let n = Array.length d0 in
  if Array.length e0 <> max 0 (n - 1) then
    invalid_arg "Qr_eig.eigenvalues_tridiagonal: off-diagonal length";
  let d = Array.copy d0 and e = Array.make (n + 1) 0.0 in
  Array.blit e0 0 e 0 (Array.length e0);
  let local_sweeps = ref 0 in
  let notify ev ~sweeps ~remaining ~block ~residual ~shift =
    match observe with
    | None -> ()
    | Some f ->
        f
          {
            event = ev;
            sweeps;
            total = !local_sweeps;
            remaining;
            block;
            residual;
            shift;
            exceptional = false;
          }
  in
  let rec split m =
    if m >= n - 1 then m
    else
      let dd = abs_float d.(m) +. abs_float d.(m + 1) in
      if abs_float e.(m) +. dd = dd then m else split (m + 1)
  in
  for l = 0 to n - 1 do
    let its = ref 0 in
    let m = ref (split l) in
    while !m <> l do
      let m_v = !m in
      if !its >= max_iter then
        raise (No_convergence { dim = n; block = l; iterations = !its });
      incr its;
      Atomic.incr sweep_count;
      incr local_sweeps;
      let g = (d.(l + 1) -. d.(l)) /. (2.0 *. e.(l)) in
      let r = Float.hypot g 1.0 in
      let shift = d.(l) -. (e.(l) /. (g +. sign_of r g)) in
      notify Sweep ~sweeps:!its ~remaining:(n - l) ~block:(m_v - l + 1)
        ~residual:(abs_float e.(l)) ~shift;
      let g = ref (d.(m_v) -. shift) in
      let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
      let i = ref (m_v - 1) and underflow = ref false in
      while !i >= l && not !underflow do
        let ii = !i in
        let f = !s *. e.(ii) and b = !c *. e.(ii) in
        let r = Float.hypot f !g in
        e.(ii + 1) <- r;
        if r = 0.0 then begin
          (* the rotation underflowed: split here and start over *)
          d.(ii + 1) <- d.(ii + 1) -. !p;
          e.(m_v) <- 0.0;
          underflow := true
        end
        else begin
          s := f /. r;
          c := !g /. r;
          let g1 = d.(ii + 1) -. !p in
          let r = ((d.(ii) -. g1) *. !s) +. (2.0 *. !c *. b) in
          p := !s *. r;
          d.(ii + 1) <- g1 +. !p;
          g := (!c *. r) -. b;
          decr i
        end
      done;
      if not !underflow then begin
        d.(l) <- d.(l) -. !p;
        e.(l) <- !g;
        e.(m_v) <- 0.0
      end;
      m := split l
    done;
    notify Deflate ~sweeps:!its ~remaining:(n - l - 1) ~block:1 ~residual:0.0
      ~shift:d.(l)
  done;
  d
