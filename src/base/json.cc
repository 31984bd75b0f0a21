#include "base/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/env.hh"
#include "base/logging.hh"

namespace tw
{

Json
Json::boolean(bool v)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.flag_ = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.kind_ = Kind::Number;
    // %.17g round-trips every finite double exactly; JSON has no
    // inf/nan, so those render as null-adjacent sentinels that the
    // strict parser would reject — the harness never produces them.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    j.text_ = buf;
    return j;
}

Json
Json::number(std::uint64_t v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.text_ = std::to_string(v);
    return j;
}

Json
Json::number(std::int64_t v)
{
    Json j;
    j.kind_ = Kind::Number;
    j.text_ = std::to_string(v);
    return j;
}

Json
Json::numberLexeme(std::string lexeme)
{
    Json j;
    j.kind_ = Kind::Number;
    j.text_ = std::move(lexeme);
    return j;
}

Json
Json::str(std::string v)
{
    Json j;
    j.kind_ = Kind::String;
    j.text_ = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

double
Json::asDouble() const
{
    if (kind_ != Kind::Number)
        return 0.0;
    return std::strtod(text_.c_str(), nullptr);
}

std::uint64_t
Json::asU64() const
{
    if (kind_ != Kind::Number)
        return 0;
    // A negative lexeme must not wrap through strtoull ("-1" would
    // read as UINT64_MAX) nor hit the undefined negative-double
    // cast: clamp to 0, and let callers reject via isNegative().
    if (!text_.empty() && text_[0] == '-')
        return 0;
    // Integral lexemes parse exactly; scientific/fractional ones
    // fall back through the double path.
    if (text_.find_first_of(".eE") == std::string::npos)
        return std::strtoull(text_.c_str(), nullptr, 10);
    return static_cast<std::uint64_t>(asDouble());
}

std::int64_t
Json::asI64() const
{
    if (kind_ != Kind::Number)
        return 0;
    if (text_.find_first_of(".eE") == std::string::npos)
        return std::strtoll(text_.c_str(), nullptr, 10);
    return static_cast<std::int64_t>(asDouble());
}

bool
Json::toUnsigned(std::uint64_t max, std::uint64_t &out) const
{
    return kind_ == Kind::Number && parseDecimal(text_.c_str(), max, out);
}

bool
Json::toSigned(std::int64_t min, std::int64_t max,
               std::int64_t &out) const
{
    if (kind_ != Kind::Number)
        return false;
    std::uint64_t mag = 0;
    if (isNegative()) {
        // |min| as unsigned, exact even for INT64_MIN.
        std::uint64_t limit = 0 - static_cast<std::uint64_t>(min);
        if (!parseDecimal(text_.c_str() + 1, limit, mag))
            return false;
        out = static_cast<std::int64_t>(0 - mag);
        return true;
    }
    if (!parseDecimal(text_.c_str(), static_cast<std::uint64_t>(max),
                      mag))
        return false;
    out = static_cast<std::int64_t>(mag);
    return true;
}

Json &
Json::push(Json v)
{
    TW_ASSERT(kind_ == Kind::Array, "push on non-array Json");
    elems_.push_back(std::move(v));
    return elems_.back();
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

Json &
Json::set(const std::string &key, Json v)
{
    TW_ASSERT(kind_ == Kind::Object, "set on non-object Json");
    for (auto &[k, old] : members_) {
        if (k == key) {
            old = std::move(v);
            return old;
        }
    }
    members_.emplace_back(key, std::move(v));
    return members_.back().second;
}

const Json *
Json::findPath(const std::string &dotted) const
{
    const Json *cur = this;
    std::size_t pos = 0;
    while (pos <= dotted.size()) {
        std::size_t dot = dotted.find('.', pos);
        std::string key = dotted.substr(
            pos, dot == std::string::npos ? std::string::npos
                                          : dot - pos);
        if (!cur->isObject())
            return nullptr;
        cur = cur->find(key);
        if (!cur)
            return nullptr;
        if (dot == std::string::npos)
            return cur;
        pos = dot + 1;
    }
    return nullptr;
}

void
jsonEscape(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
Json::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += flag_ ? "true" : "false";
        break;
      case Kind::Number:
        out += text_;
        break;
      case Kind::String:
        jsonEscape(text_, out);
        break;
      case Kind::Array: {
        out += '[';
        bool first = true;
        for (const auto &e : elems_) {
            if (!first)
                out += ',';
            first = false;
            e.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : members_) {
            if (!first)
                out += ',';
            first = false;
            jsonEscape(k, out);
            out += ':';
            v.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

namespace
{

/** Strict recursive-descent parser over a byte range. */
class Parser
{
  public:
    Parser(const char *p, const char *end) : p_(p), end_(end) {}

    bool
    parseTop(Json &out, std::string &err)
    {
        skipWs();
        if (!parseValue(out, err, 0))
            return false;
        skipWs();
        if (p_ != end_) {
            err = "trailing garbage after JSON value";
            return false;
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    skipWs()
    {
        while (p_ != end_
               && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n'
                   || *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (static_cast<std::size_t>(end_ - p_) < n
            || std::memcmp(p_, word, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    bool
    parseValue(Json &out, std::string &err, int depth)
    {
        if (depth > kMaxDepth) {
            err = "nesting too deep";
            return false;
        }
        if (p_ == end_) {
            err = "unexpected end of input";
            return false;
        }
        switch (*p_) {
          case 'n':
            if (!literal("null")) {
                err = "bad literal";
                return false;
            }
            out = Json::null();
            return true;
          case 't':
            if (!literal("true")) {
                err = "bad literal";
                return false;
            }
            out = Json::boolean(true);
            return true;
          case 'f':
            if (!literal("false")) {
                err = "bad literal";
                return false;
            }
            out = Json::boolean(false);
            return true;
          case '"': {
            std::string s;
            if (!parseString(s, err))
                return false;
            out = Json::str(std::move(s));
            return true;
          }
          case '[':
            return parseArray(out, err, depth);
          case '{':
            return parseObject(out, err, depth);
          default:
            return parseNumber(out, err);
        }
    }

    bool
    parseNumber(Json &out, std::string &err)
    {
        const char *start = p_;
        if (p_ != end_ && *p_ == '-')
            ++p_;
        if (p_ == end_ || !std::isdigit(static_cast<unsigned char>(*p_))) {
            err = "bad number";
            return false;
        }
        const char *intStart = p_;
        while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)))
            ++p_;
        // RFC 8259: no leading zeros ("01" is not a number). A
        // canonical lexeme that failed to round-trip would
        // otherwise slip through as a different cache key.
        if (*intStart == '0' && p_ - intStart > 1) {
            err = "bad number (leading zero)";
            return false;
        }
        if (p_ != end_ && *p_ == '.') {
            ++p_;
            if (p_ == end_
                || !std::isdigit(static_cast<unsigned char>(*p_))) {
                err = "bad number";
                return false;
            }
            while (p_ != end_
                   && std::isdigit(static_cast<unsigned char>(*p_)))
                ++p_;
        }
        if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
            ++p_;
            if (p_ != end_ && (*p_ == '+' || *p_ == '-'))
                ++p_;
            if (p_ == end_
                || !std::isdigit(static_cast<unsigned char>(*p_))) {
                err = "bad number";
                return false;
            }
            while (p_ != end_
                   && std::isdigit(static_cast<unsigned char>(*p_)))
                ++p_;
        }
        // Keep the exact lexeme (see file comment in json.hh).
        out = Json::numberLexeme(std::string(start, p_));
        return true;
    }

    bool
    parseString(std::string &out, std::string &err)
    {
        ++p_; // opening quote
        while (p_ != end_) {
            unsigned char c = static_cast<unsigned char>(*p_);
            if (c == '"') {
                ++p_;
                return true;
            }
            if (c == '\\') {
                ++p_;
                if (p_ == end_) {
                    err = "bad escape";
                    return false;
                }
                char e = *p_++;
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u': {
                    if (end_ - p_ < 4) {
                        err = "bad \\u escape";
                        return false;
                    }
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = *p_++;
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            err = "bad \\u escape";
                            return false;
                        }
                    }
                    appendUtf8(out, cp);
                    break;
                  }
                  default:
                    err = "bad escape";
                    return false;
                }
            } else if (c < 0x20) {
                err = "raw control character in string";
                return false;
            } else {
                out += static_cast<char>(c);
                ++p_;
            }
        }
        err = "unterminated string";
        return false;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseArray(Json &out, std::string &err, int depth)
    {
        ++p_; // '['
        out = Json::array();
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        while (true) {
            Json elem;
            skipWs();
            if (!parseValue(elem, err, depth + 1))
                return false;
            out.push(std::move(elem));
            skipWs();
            if (p_ == end_) {
                err = "unterminated array";
                return false;
            }
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            err = "expected ',' or ']'";
            return false;
        }
    }

    bool
    parseObject(Json &out, std::string &err, int depth)
    {
        ++p_; // '{'
        out = Json::object();
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (p_ == end_ || *p_ != '"') {
                err = "expected object key";
                return false;
            }
            std::string key;
            if (!parseString(key, err))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':') {
                err = "expected ':'";
                return false;
            }
            ++p_;
            skipWs();
            Json val;
            if (!parseValue(val, err, depth + 1))
                return false;
            out.set(key, std::move(val));
            skipWs();
            if (p_ == end_) {
                err = "unterminated object";
                return false;
            }
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            err = "expected ',' or '}'";
            return false;
        }
    }

    const char *p_;
    const char *end_;
};

} // anonymous namespace

bool
Json::parse(const std::string &text, Json &out, std::string *err)
{
    std::string local;
    Parser parser(text.data(), text.data() + text.size());
    bool ok = parser.parseTop(out, local);
    if (!ok && err)
        *err = local;
    return ok;
}

} // namespace tw
