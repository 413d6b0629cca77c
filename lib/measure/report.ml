let fmt_f v =
  if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.3f" v

let table ~title ~header ~rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        let cell = try List.nth row c with Failure _ -> "" in
        max acc (String.length cell))
      0 all
  in
  let widths = List.init cols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           if i = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         row)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun row -> print_endline (line row)) rows

let series ~title ?(x_label = "x") ?(y_label = "y") pts =
  Printf.printf "\n== %s ==\n" title;
  match pts with
  | [] -> print_endline "  (no data)"
  | _ ->
      let xs = List.map fst pts and ys = List.map snd pts in
      let x0 = List.fold_left Float.min (List.hd xs) xs in
      let x1 = List.fold_left Float.max (List.hd xs) xs in
      let y0 = List.fold_left Float.min (List.hd ys) ys in
      let y1 = List.fold_left Float.max (List.hd ys) ys in
      let rows = 16 and cols = 64 in
      let grid = Array.make_matrix rows cols ' ' in
      let span_x = if x1 -. x0 <= 0.0 then 1.0 else x1 -. x0 in
      let span_y = if y1 -. y0 <= 0.0 then 1.0 else y1 -. y0 in
      List.iter
        (fun (x, y) ->
          let c =
            int_of_float ((x -. x0) /. span_x *. float_of_int (cols - 1))
          in
          let r =
            rows - 1
            - int_of_float ((y -. y0) /. span_y *. float_of_int (rows - 1))
          in
          grid.(max 0 (min (rows - 1) r)).(max 0 (min (cols - 1) c)) <- '*')
        pts;
      Printf.printf "  %s: %.3f .. %.3f   %s: %.3f .. %.3f\n" x_label x0 x1
        y_label y0 y1;
      Array.iter
        (fun row ->
          print_string "  |";
          Array.iter print_char row;
          print_newline ())
        grid;
      Printf.printf "  +%s\n" (String.make cols '-')
