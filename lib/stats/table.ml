type align = Left | Right

type t = {
  headers : string list;
  rows : string list list; (* newest first *)
}

let create ~headers = { headers; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch with headers";
  { t with rows = cells :: t.rows }

let looks_numeric cell =
  cell <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || List.mem c [ '.'; '-'; '+'; 'e'; 'E'; '%'; '/' ])
       cell

let column_align cells = if List.for_all looks_numeric cells then Right else Left

let render t =
  let rows = List.rev t.rows in
  let columns = List.length t.headers in
  let cell row i = List.nth row i in
  let widths =
    List.init columns (fun i ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (cell row i)))
          (String.length (cell t.headers i))
          rows)
  in
  let aligns =
    List.init columns (fun i -> column_align (List.map (fun row -> cell row i) rows))
  in
  let pad width align s =
    let gap = width - String.length s in
    if gap <= 0 then s
    else
      match align with
      | Left -> s ^ String.make gap ' '
      | Right -> String.make gap ' ' ^ s
  in
  let format_row row =
    List.init columns (fun i -> pad (List.nth widths i) (List.nth aligns i) (cell row i))
    |> String.concat "   "
  in
  let rule = List.map (fun w -> String.make w '-') widths |> String.concat "   " in
  String.concat "\n" (format_row t.headers :: rule :: List.map format_row rows) ^ "\n"

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (line t.headers :: List.map line (List.rev t.rows)) ^ "\n"
