// Package tpcds provides a TPC-DS-style snowflake schema (the paper's
// S_DS with its primary keys Σ_DS) and a deterministic synthetic data
// generator. The validation scenarios of Appendix F run conjunctive
// renderings of TPC-DS query templates over it.
//
// This is a faithful subset of the 24-relation TPC-DS schema: the two
// largest fact tables (store_sales, catalog_sales) with their composite
// primary keys, plus the nine dimensions the selected query templates
// touch. The snowflake join structure — the property the validation
// queries exercise — is preserved exactly (see DESIGN.md §1).
package tpcds

import (
	"fmt"

	"cqabench/internal/mt"
	"cqabench/internal/relation"
)

// Schema returns the TPC-DS snowflake subset with primary keys and the
// foreign-key graph.
func Schema() *relation.Schema {
	return relation.MustSchema([]relation.RelDef{
		{
			Name: "date_dim",
			Attrs: []string{
				"d_date_sk", "d_year", "d_moy", "d_dom", "d_qoy", "d_day_name",
			},
			KeyLen: 1,
		},
		{
			Name: "item",
			Attrs: []string{
				"i_item_sk", "i_item_id", "i_brand_id", "i_brand", "i_class",
				"i_category_id", "i_category", "i_current_price", "i_manager_id",
			},
			KeyLen: 1,
		},
		{
			Name: "customer_address",
			Attrs: []string{
				"ca_address_sk", "ca_city", "ca_county", "ca_state", "ca_zip",
				"ca_gmt_offset",
			},
			KeyLen: 1,
		},
		{
			Name: "customer",
			Attrs: []string{
				"c_customer_sk", "c_customer_id", "c_current_addr_sk",
				"c_first_name", "c_last_name", "c_birth_year",
			},
			KeyLen: 1,
		},
		{
			Name: "store",
			Attrs: []string{
				"s_store_sk", "s_store_id", "s_store_name", "s_city", "s_state",
			},
			KeyLen: 1,
		},
		{
			Name: "warehouse",
			Attrs: []string{
				"w_warehouse_sk", "w_warehouse_name", "w_city", "w_state",
			},
			KeyLen: 1,
		},
		{
			Name: "ship_mode",
			Attrs: []string{
				"sm_ship_mode_sk", "sm_type", "sm_code", "sm_carrier",
			},
			KeyLen: 1,
		},
		{
			Name: "promotion",
			Attrs: []string{
				"p_promo_sk", "p_promo_id", "p_channel_dmail", "p_channel_email",
				"p_channel_tv",
			},
			KeyLen: 1,
		},
		{
			Name: "call_center",
			Attrs: []string{
				"cc_call_center_sk", "cc_name", "cc_class", "cc_city", "cc_state",
			},
			KeyLen: 1,
		},
		{
			// Primary key per TPC-DS: (ss_item_sk, ss_ticket_number); we
			// order attributes so the key is the prefix.
			Name: "store_sales",
			Attrs: []string{
				"ss_item_sk", "ss_ticket_number", "ss_sold_date_sk",
				"ss_customer_sk", "ss_store_sk", "ss_promo_sk", "ss_quantity",
				"ss_sales_price",
			},
			KeyLen: 2,
		},
		{
			// Primary key per TPC-DS: (cs_item_sk, cs_order_number).
			Name: "catalog_sales",
			Attrs: []string{
				"cs_item_sk", "cs_order_number", "cs_sold_date_sk",
				"cs_bill_customer_sk", "cs_warehouse_sk", "cs_ship_mode_sk",
				"cs_call_center_sk", "cs_promo_sk", "cs_quantity",
				"cs_sales_price",
			},
			KeyLen: 2,
		},
	}, []relation.ForeignKey{
		{FromRel: "customer", FromCols: []int{2}, ToRel: "customer_address", ToCols: []int{0}},
		{FromRel: "store_sales", FromCols: []int{0}, ToRel: "item", ToCols: []int{0}},
		{FromRel: "store_sales", FromCols: []int{2}, ToRel: "date_dim", ToCols: []int{0}},
		{FromRel: "store_sales", FromCols: []int{3}, ToRel: "customer", ToCols: []int{0}},
		{FromRel: "store_sales", FromCols: []int{4}, ToRel: "store", ToCols: []int{0}},
		{FromRel: "store_sales", FromCols: []int{5}, ToRel: "promotion", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{0}, ToRel: "item", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{2}, ToRel: "date_dim", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{3}, ToRel: "customer", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{4}, ToRel: "warehouse", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{5}, ToRel: "ship_mode", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{6}, ToRel: "call_center", ToCols: []int{0}},
		{FromRel: "catalog_sales", FromCols: []int{7}, ToRel: "promotion", ToCols: []int{0}},
	})
}

// Config parameterizes generation; SF = 1 approximates the 1 GB TPC-DS
// row-count ratios (~20M tuples), scaled down like tpch.Config.
type Config struct {
	ScaleFactor float64
	Seed        uint64
}

// Base cardinalities at SF = 1, following the TPC-DS 1 GB profile.
const (
	baseItem         = 18000
	baseCustomer     = 100000
	baseAddress      = 50000
	baseStoreSales   = 2880000
	baseCatalogSales = 1440000
	baseDateDim      = 2500 // restricted to the sales window
)

var (
	states     = []string{"CA", "NY", "TX", "WA", "IL", "GA", "OH", "MI", "PA", "FL"}
	cities     = []string{"Fairview", "Midway", "Oakland", "Pleasant Hill", "Centerville", "Springdale", "Riverview", "Lakeside"}
	categories = []string{"Books", "Electronics", "Home", "Jewelry", "Men", "Music", "Shoes", "Sports", "Women", "Children"}
	classes    = []string{"accessories", "classical", "fiction", "fragrances", "pants", "pop", "portable", "reference"}
	dayNames   = []string{"Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday"}
	shipTypes  = []string{"EXPRESS", "LIBRARY", "NEXT DAY", "OVERNIGHT", "REGULAR", "TWO DAY"}
	carriers   = []string{"UPS", "FEDEX", "AIRBORNE", "USPS", "DHL", "TBS"}
	firstNames = []string{"James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael", "Linda", "William", "Barbara"}
	lastNames  = []string{"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller", "Davis", "Rodriguez", "Martinez"}
	yesNo      = []string{"Y", "N"}
)

func scaled(base int, sf float64) int {
	n := int(float64(base)*sf + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate produces a consistent TPC-DS subset database, deterministic for
// a fixed Config.
func Generate(cfg Config) (*relation.Database, error) {
	if cfg.ScaleFactor <= 0 {
		return nil, fmt.Errorf("tpcds: scale factor must be positive, got %v", cfg.ScaleFactor)
	}
	src := mt.New(cfg.Seed)
	db := relation.NewDatabase(Schema())
	pick := func(xs []string) string { return xs[src.Intn(len(xs))] }

	nItem := scaled(baseItem, cfg.ScaleFactor)
	nCust := scaled(baseCustomer, cfg.ScaleFactor)
	nAddr := scaled(baseAddress, cfg.ScaleFactor)
	nSS := scaled(baseStoreSales, cfg.ScaleFactor)
	nCS := scaled(baseCatalogSales, cfg.ScaleFactor)
	nDate := scaled(baseDateDim, cfg.ScaleFactor)
	if nDate < 30 {
		nDate = 30
	}
	// Dimension floors: TPC-DS dimensions have minimum cardinalities, and
	// the validation templates filter on categorical values that must all
	// be present at any scale.
	if nItem < 2*len(categories) {
		nItem = 2 * len(categories)
	}
	nStore := scaled(12, cfg.ScaleFactor*1000) // a handful of stores
	if nStore < 2 {
		nStore = 2
	}
	nWh, nSM, nPromo, nCC := 5, len(shipTypes), 10, 4

	for d := 1; d <= nDate; d++ {
		// Attribute values cycle quickly so every month/quarter/day value
		// exists even at tiny scale factors (template filters rely on it).
		db.MustInsert("date_dim", d, 1998+d/366, 1+(d-1)%12, 1+(d-1)%28, 1+(d-1)%4, dayNames[d%7])
	}
	for i := 1; i <= nItem; i++ {
		cat := (i - 1) % len(categories) // cyclic: every category present
		db.MustInsert("item",
			i,
			fmt.Sprintf("AAAAAAAA%08d", i),
			1000000+src.Intn(10)*100000+src.Intn(100),
			fmt.Sprintf("brand-%d-%d", cat, src.Intn(10)),
			pick(classes),
			cat+1,
			categories[cat],
			99+src.Intn(9900), // price in cents
			1+src.Intn(100),
		)
	}
	for a := 1; a <= nAddr; a++ {
		db.MustInsert("customer_address",
			a, pick(cities), pick(cities)+" County", pick(states),
			fmt.Sprintf("%05d", 10000+src.Intn(89999)), -src.Intn(9))
	}
	for c := 1; c <= nCust; c++ {
		db.MustInsert("customer",
			c,
			fmt.Sprintf("CUST%011d", c),
			1+src.Intn(nAddr),
			pick(firstNames), pick(lastNames),
			1930+src.Intn(70),
		)
	}
	for s := 1; s <= nStore; s++ {
		db.MustInsert("store", s, fmt.Sprintf("S%08d", s), "store-"+pick(cities), pick(cities), pick(states))
	}
	for w := 1; w <= nWh; w++ {
		db.MustInsert("warehouse", w, fmt.Sprintf("wh-%d", w), pick(cities), pick(states))
	}
	for m := 1; m <= nSM; m++ {
		db.MustInsert("ship_mode", m, shipTypes[m-1], fmt.Sprintf("sm-%d", m), pick(carriers))
	}
	for p := 1; p <= nPromo; p++ {
		db.MustInsert("promotion", p, fmt.Sprintf("PROMO%06d", p), pick(yesNo), pick(yesNo), pick(yesNo))
	}
	for cc := 1; cc <= nCC; cc++ {
		db.MustInsert("call_center", cc, fmt.Sprintf("cc-%d", cc), "large", pick(cities), pick(states))
	}
	for t := 1; t <= nSS; t++ {
		db.MustInsert("store_sales",
			1+src.Intn(nItem), t,
			1+src.Intn(nDate),
			1+src.Intn(nCust),
			1+src.Intn(nStore),
			1+src.Intn(nPromo),
			1+src.Intn(20),
			50+src.Intn(20000),
		)
	}
	for o := 1; o <= nCS; o++ {
		db.MustInsert("catalog_sales",
			1+src.Intn(nItem), o,
			1+src.Intn(nDate),
			1+src.Intn(nCust),
			1+src.Intn(nWh),
			1+src.Intn(nSM),
			1+src.Intn(nCC),
			1+src.Intn(nPromo),
			1+src.Intn(20),
			50+src.Intn(20000),
		)
	}
	return db, nil
}

// MustGenerate is Generate but panics on error.
func MustGenerate(cfg Config) *relation.Database {
	db, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return db
}
