(* Workload processes of the benchmark; run.py starts them.

     perfbench plan|simulate --seed N --seconds S [--overhead 0|1]
                             [--setup-only 1]
     perfbench client --port P --server-pid PID --seed N --open-s S
                      --closed-s S --rate R
     perfbench layers --seed N --out DIR
     perfbench hot-bodies *)

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      let fl = Common.flags rest in
      let int name = Common.flag fl name ~default:0 int_of_string in
      let float name = Common.flag fl name ~default:0.0 float_of_string in
      let seed = Common.flag fl "seed" ~default:1 int_of_string in
      let overhead = Common.flag fl "overhead" ~default:false (( = ) "1") in
      Common.setup_only := Common.flag fl "setup-only" ~default:false (( = ) "1");
      match cmd with
      | "plan" -> Plan.run ~seed ~seconds:(float "seconds") ~overhead
      | "simulate" -> Simulate.run ~seed ~seconds:(float "seconds") ~overhead
      | "client" ->
          Client.run ~port:(int "port") ~pid:(int "server-pid") ~seed
            ~open_s:(float "open-s") ~closed_s:(float "closed-s") ~rate:(float "rate")
      | "layers" -> Layers.run ~seed ~out:(Common.flag fl "out" ~default:"." Fun.id)
      | "hot-bodies" -> Array.iter print_endline Mix.hot_bodies
      | _ ->
          prerr_endline ("perfbench: unknown command " ^ cmd);
          exit 2)
  | _ ->
      prerr_endline "usage: perfbench plan|simulate|client|layers|hot-bodies ...";
      exit 2
