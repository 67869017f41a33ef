(* Plain-text table renderer for the regenerated paper tables. Cells are
   strings; columns are padded to their widest cell. *)

type t = {
  title : string;
  columns : string list;
  rows : string list list;
}

let make ~title ~columns ~rows =
  let width = List.length columns in
  List.iter
    (fun row ->
      if List.length row <> width then
        invalid_arg "Table.make: row width does not match column count")
    rows;
  { title; columns; rows }

let column_widths t =
  let update widths row =
    List.map2 (fun w cell -> max w (String.length cell)) widths row
  in
  List.fold_left update (List.map String.length t.columns) t.rows

let pad width s = s ^ String.make (width - String.length s) ' '

let rule widths =
  "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"

let render_row widths row =
  "| " ^ String.concat " | " (List.map2 pad widths row) ^ " |"

let pp ppf t =
  let widths = column_widths t in
  Fmt.pf ppf "%s@." t.title;
  Fmt.pf ppf "%s@." (rule widths);
  Fmt.pf ppf "%s@." (render_row widths t.columns);
  Fmt.pf ppf "%s@." (rule widths);
  List.iter (fun row -> Fmt.pf ppf "%s@." (render_row widths row)) t.rows;
  Fmt.pf ppf "%s@." (rule widths)

let to_string t = Fmt.str "%a" pp t

