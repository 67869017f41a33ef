(** Gaussian chance-constraint margins for uncertain resource estimates
    (SNIPPETS.md Snippets 1/3): inflate a nominal demand by
    [1 + Phi^-1(p) * sigma] so it holds with service probability ~[p]
    under relative estimation error [sigma]. *)

val inflation : p:float -> sigma:float -> float
(** [max 0 (1 + Phi^-1 p * sigma)] — the multiplicative margin on a
    demand estimate. [Phi^-1 p], the standard normal quantile, comes from
    Acklam's rational approximation (relative error < 1.15e-9; exactly
    [0.] at [p = 0.5]). [1.] whenever [sigma = 0.] or [p = 0.5]; below 1
    for [p < 0.5] (optimistic service levels are permitted).
    @raise Invalid_argument if [p] is outside (0, 1) or [sigma] is
    negative or non-finite. *)
