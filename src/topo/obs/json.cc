#include "topo/obs/json.hh"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "topo/util/error.hh"

namespace topo
{

namespace
{

/** Render a double the way the snapshot files expect: integral values
 *  without a fractional part, everything else with enough digits to
 *  round-trip. */
std::string
formatNumber(double value)
{
    require(std::isfinite(value), "JsonValue: non-finite number");
    if (value == static_cast<double>(static_cast<long long>(value))) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(value));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
indent(std::ostream &os, int depth)
{
    for (int i = 0; i < depth; ++i)
        os << "  ";
}

/** Recursive-descent parser over a string view with a cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        const JsonValue value = parseValue();
        skipSpace();
        require(pos_ == text_.size(),
                "JsonValue::parse: trailing characters after document");
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        require(pos_ < text_.size(),
                "JsonValue::parse: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("JsonValue::parse: expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return JsonValue::string(parseString());
        if (c == 't' && consumeWord("true"))
            return JsonValue::boolean(true);
        if (c == 'f' && consumeWord("false"))
            return JsonValue::boolean(false);
        if (c == 'n' && consumeWord("null"))
            return JsonValue();
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue object = JsonValue::object();
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return object;
        }
        while (true) {
            skipSpace();
            const std::string key = parseString();
            skipSpace();
            expect(':');
            object.set(key, parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return object;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue array = JsonValue::array();
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return array;
        }
        while (true) {
            array.push(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return array;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            require(pos_ < text_.size(),
                    "JsonValue::parse: unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            require(pos_ < text_.size(),
                    "JsonValue::parse: unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                require(pos_ + 4 <= text_.size(),
                        "JsonValue::parse: truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("JsonValue::parse: bad \\u escape digit");
                }
                // UTF-8 encode the BMP code point (snapshots only emit
                // ASCII; full surrogate handling is out of scope).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("JsonValue::parse: unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        require(pos_ > start, "JsonValue::parse: expected a value");
        std::size_t used = 0;
        const std::string slice = text_.substr(start, pos_ - start);
        double value = 0.0;
        try {
            value = std::stod(slice, &used);
        } catch (const std::exception &) {
            fail("JsonValue::parse: malformed number '" + slice + "'");
        }
        if (used != slice.size())
            fail("JsonValue::parse: malformed number '" + slice + "'");
        return JsonValue::number(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
JsonValue::boolean(bool value)
{
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = value;
    return v;
}

JsonValue
JsonValue::number(double value)
{
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = value;
    return v;
}

JsonValue
JsonValue::string(std::string value)
{
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(value);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
}

bool
JsonValue::asBool() const
{
    require(kind_ == Kind::kBool, "JsonValue: not a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    require(kind_ == Kind::kNumber, "JsonValue: not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    require(kind_ == Kind::kString, "JsonValue: not a string");
    return string_;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::kArray)
        return elements_.size();
    if (kind_ == Kind::kObject)
        return members_.size();
    return 0;
}

void
JsonValue::push(JsonValue value)
{
    require(kind_ == Kind::kArray, "JsonValue::push: not an array");
    elements_.push_back(std::move(value));
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    require(kind_ == Kind::kArray, "JsonValue::at: not an array");
    require(index < elements_.size(),
            "JsonValue::at: array index out of range");
    return elements_[index];
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue value)
{
    require(kind_ == Kind::kObject, "JsonValue::set: not an object");
    for (auto &[k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return v;
        }
    }
    members_.emplace_back(key, std::move(value));
    return members_.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : members_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    if (value == nullptr)
        fail("JsonValue::at: missing object member '" + key + "'");
    return *value;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    require(kind_ == Kind::kObject,
            "JsonValue::members: not an object");
    return members_;
}

const std::vector<JsonValue> &
JsonValue::elements() const
{
    require(kind_ == Kind::kArray,
            "JsonValue::elements: not an array");
    return elements_;
}

void
writeJsonString(std::ostream &os, const std::string &text)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\b': os << "\\b"; break;
        case '\f': os << "\\f"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
JsonValue::write(std::ostream &os, int depth) const
{
    switch (kind_) {
    case Kind::kNull:
        os << "null";
        return;
    case Kind::kBool:
        os << (bool_ ? "true" : "false");
        return;
    case Kind::kNumber:
        os << formatNumber(number_);
        return;
    case Kind::kString:
        writeJsonString(os, string_);
        return;
    case Kind::kArray: {
        if (elements_.empty()) {
            os << "[]";
            return;
        }
        os << "[\n";
        for (std::size_t i = 0; i < elements_.size(); ++i) {
            indent(os, depth + 1);
            elements_[i].write(os, depth + 1);
            if (i + 1 < elements_.size())
                os << ',';
            os << '\n';
        }
        indent(os, depth);
        os << ']';
        return;
    }
    case Kind::kObject: {
        if (members_.empty()) {
            os << "{}";
            return;
        }
        os << "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
            indent(os, depth + 1);
            writeJsonString(os, members_[i].first);
            os << ": ";
            members_[i].second.write(os, depth + 1);
            if (i + 1 < members_.size())
                os << ',';
            os << '\n';
        }
        indent(os, depth);
        os << '}';
        return;
    }
    }
}

std::string
JsonValue::toString() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

JsonValue
JsonValue::parse(const std::string &text)
{
    Parser parser(text);
    return parser.document();
}

} // namespace topo
