(* A reference kernel owned by the benchmark. It is timed between the
   program's operations to measure how fast the shared machine runs at
   that moment; run.py scales each operation's time by it. It calls no
   code of the program, so a change to the program cannot move it. *)

let n = 128
let a = Array.init (n * n) (fun i -> float (i mod 7) *. 0.1)
let b = Array.init (n * n) (fun i -> float (i mod 5) *. 0.2)
let c = Array.make (n * n) 0.0

(* dense 128 x 128 matrix product: 4M flops over 384 KiB *)
let matmul () =
  Array.fill c 0 (n * n) 0.0;
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = Array.unsafe_get a ((i * n) + k) in
      for j = 0 to n - 1 do
        let ij = (i * n) + j in
        Array.unsafe_set c ij (Array.unsafe_get c ij +. (aik *. Array.unsafe_get b ((k * n) + j)))
      done
    done
  done

(* the first product also touches the arrays' pages; it is not timed *)
let warm = lazy (matmul ())

(* milliseconds taken by three products *)
let reference_ms () =
  Lazy.force warm;
  let t0 = Common.now () in
  for _ = 1 to 3 do
    matmul ()
  done;
  (Common.now () -. t0) *. 1000.0
