package scenario

import (
	"fmt"

	"cqabench/internal/cq"
	"cqabench/internal/noise"
	"cqabench/internal/relation"
	"cqabench/internal/synopsis"
)

// ValidationQuery is a conjunctive rendering of a TPC-H or TPC-DS query
// template (Appendix F selects positive templates and strips aggregates;
// our renderings preserve each template's join structure and constant
// selections over the schemas in internal/tpch and internal/tpcds).
type ValidationQuery struct {
	Benchmark  string // "TPC-H" or "TPC-DS"
	TemplateID int    // the template's number in the benchmark workload
	Text       string // cq parser syntax
}

// Name returns the paper's Q^i_B notation.
func (v ValidationQuery) Name() string {
	b := "H"
	if v.Benchmark == "TPC-DS" {
		b = "DS"
	}
	return fmt.Sprintf("Q%d_%s", v.TemplateID, b)
}

// TPCHValidationQueries returns the conjunctive renderings of the TPC-H
// templates the paper selects: Q_H = {1, 4, 5, 6, 8, 10, 12, 14, 19}.
func TPCHValidationQueries() []ValidationQuery {
	return []ValidationQuery{
		{"TPC-H", 1, "Q(rf, ls) :- lineitem(o, l, p, s, qy, ep, 5, tx, rf, ls, sd, cd, rd, si, sm, cm)"},
		{"TPC-H", 4, "Q(pr) :- orders(o, c, st, tp, d, pr, cl, sp, ocm), lineitem(o, ln, pk, sk, qy, ep, di, tx, rf, lst, sd, cd, rd, si, sm, lc)"},
		{"TPC-H", 5, "Q(nn) :- customer(c, cn, ca, cnk, cp, cb, cs, cc), orders(o, c, ost, tp, d, opr, cl, sp, ocm), lineitem(o, ln, pk, sk, qy, ep, di, tx, rf, lst, sd, cd, rd, si, sm, lc), supplier(sk, sn, sa, nk, sp2, sb, scm), nation(nk, nn, rk, ncm), region(rk, 'ASIA', rc)"},
		{"TPC-H", 6, "Q() :- lineitem(o, l, p, s, 25, ep, 5, tx, rf, ls, sd, cd, rd, si, sm, cm)"},
		{"TPC-H", 8, "Q(d) :- part(pk, pn, mf, br, 'ECONOMY POLISHED BRASS', sz, cn, rp, pc), lineitem(o, ln, pk, sk, qy, ep, di, tx, rf, ls, sd, cd, rd, si, sm, lc), orders(o, c, ost, tp, d, opr, cl, sp, ocm), customer(c, cnm, ca, nk, cph, cb, cs, cc), nation(nk, nn, rk, ncm), region(rk, 'AMERICA', rc)"},
		{"TPC-H", 10, "Q(c, cn) :- customer(c, cn, ca, nk, cp, cb, cs, cc), orders(o, c, ost, tp, d, opr, cl, sp, ocm), lineitem(o, ln, pk, sk, qy, ep, di, tx, 'R', ls, sd, cd, rd, si, sm, lc), nation(nk, nn, rk, ncm)"},
		{"TPC-H", 12, "Q(opr) :- orders(o, c, ost, tp, d, opr, cl, sp, ocm), lineitem(o, ln, pk, sk, qy, ep, di, tx, rf, ls, sd, cd, rd, si, 'MAIL', lc)"},
		{"TPC-H", 14, "Q(ty) :- lineitem(o, ln, pk, sk, qy, ep, di, tx, rf, ls, sd, cd, rd, si, sm, lc), part(pk, pn, mf, br, ty, sz, cn, rp, pc)"},
		{"TPC-H", 19, "Q() :- lineitem(o, ln, pk, sk, qy, ep, di, tx, rf, ls, sd, cd, rd, 'DELIVER IN PERSON', 'AIR', lc), part(pk, pn, mf, 'Brand#12', ty, sz, 'SM CASE', rp, pc)"},
	}
}

// TPCDSValidationQueries returns the conjunctive renderings of the TPC-DS
// templates the paper selects: Q_DS = {1, 33, 60, 62, 65, 66, 68, 82}.
func TPCDSValidationQueries() []ValidationQuery {
	return []ValidationQuery{
		{"TPC-DS", 1, "Q(cid) :- store_sales(i, tk, d, c, st, pr, qt, sp), customer(c, cid, ad, fn, ln, by), store(st, sid, snm, sct, sst), date_dim(d, y, m, dom, 1, dn)"},
		{"TPC-DS", 33, "Q(bid) :- store_sales(i, tk, d, c, st, pr, qt, sp), item(i, iid, bid, br, cl, cid, 'Books', cp, mg), date_dim(d, y, 3, dom, qoy, dn)"},
		{"TPC-DS", 60, "Q(iid) :- store_sales(i, tk, d, c, st, pr, qt, sp), item(i, iid, bid, br, cl, cid, 'Music', cp, mg), customer(c, ccid, ad, fn, lnm, by), customer_address(ad, city, cty, stt, zip, off), date_dim(d, y, m, dom, qoy, dn)"},
		{"TPC-DS", 62, "Q(smt) :- catalog_sales(i, o, d, c, w, sm, cc, pr, qt, sp), ship_mode(sm, smt, smc, car), warehouse(w, wn, wc, ws), date_dim(d, y, m, dom, qoy, dn)"},
		{"TPC-DS", 65, "Q(iid) :- store_sales(i, tk, d, c, st, pr, qt, sp), item(i, iid, bid, br, cl, cid, cat, cp, mg), store(st, sid, snm, sct, sst), date_dim(d, y, m, dom, 1, dn)"},
		{"TPC-DS", 66, "Q(wn, wc) :- catalog_sales(i, o, d, c, w, sm, cc, pr, qt, sp), warehouse(w, wn, wc, ws), ship_mode(sm, 'EXPRESS', smc, car), date_dim(d, y, m, dom, qoy, dn)"},
		{"TPC-DS", 68, "Q(city) :- store_sales(i, tk, d, c, st, pr, qt, sp), customer(c, ccid, ad, fn, lnm, by), customer_address(ad, city, cty, stt, zip, off), date_dim(d, y, m, 1, qoy, dn), store(st, sid, snm, sct, sst)"},
		{"TPC-DS", 82, "Q(iid, cp) :- store_sales(i, tk, d, c, st, pr, qt, sp), item(i, iid, bid, br, cl, cid, 'Electronics', cp, mg)"},
	}
}

// ValidationScenario builds Validation[Q] (Appendix F): for each noise
// level, the consistent base database with query-aware noise injected for
// the fixed workload query. The achieved balance is recorded per pair, as
// in Figure 5's captions.
func ValidationScenario(base *relation.Database, vq ValidationQuery, levels []float64, blockMin, blockMax int, seed uint64) (*Workload, error) {
	q, err := cq.Parse(vq.Text, base.Dict)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", vq.Name(), err)
	}
	if err := q.Validate(base.Schema); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", vq.Name(), err)
	}
	w := &Workload{Name: "Validation[" + vq.Name() + "]", Axis: NoiseAxis}
	for _, p := range levels {
		db, _, err := noise.Apply(base, q, noise.Config{
			P:        p,
			MinBlock: blockMin,
			MaxBlock: blockMax,
			Seed:     seed + uint64(p*1000),
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %s at p=%.2f: %w", vq.Name(), p, err)
		}
		set, err := synopsis.Build(db, q)
		if err != nil {
			return nil, err
		}
		w.Pairs = append(w.Pairs, Pair{
			Name:    fmt.Sprintf("%s/p%.1f", vq.Name(), p),
			DB:      db,
			Query:   q,
			Noise:   p,
			Balance: set.Balance(),
			Joins:   q.NumJoins(),
		})
	}
	return w, nil
}
